"""Properness certificates: fixed points, escaping sequences, clocks, the recovery map."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from minkact.algebra import fundamental_field, standard_generator
from minkact.catalog import catalog, entry_by_id, nonproperness_witness
from minkact.linalg import (
    ETA,
    char_poly,
    matmul,
    quadratic_form,
    solve_linear,
    trace,
    vec4,
    vscale,
)
from minkact.properness import (
    FixedPointCert,
    RecoveryMismatchError,
    RecoveryReport,
    WitnessFailedError,
    WitnessSequence,
    check_witness,
    clock_certificate,
    combination,
    fixed_point_nonproper_certificate,
    fixed_point_witness,
    nilpotent_pair_witness,
    parameter_recovery_check,
    recover_element,
)
from minkact.group import (Isometry, act, compose, exp_element, lorentz_ok,
                           rational_rotation_12, translation)
from minkact.orbits import Poly, lie_derivative
from minkact.subalgebra import (
    OneParamType,
    invariant_forms,
    one_param_type,
    require_closed,
)

YK1 = standard_generator("Yk1")
YK2 = standard_generator("Yk2")
YK3 = standard_generator("Yk3")
YA = standard_generator("Ya")
YN1 = standard_generator("Yn1")
E1 = standard_generator("e1")
E2 = standard_generator("e2")
E3 = standard_generator("e3")
E4 = standard_generator("e4")


# ---------------------------------------------------------------------------
# fixed-point certificates
# ---------------------------------------------------------------------------


def test_boost_with_spacelike_translations_has_noncompact_stabilizer():
    cert = fixed_point_nonproper_certificate(require_closed((YK1, YA)))
    assert cert is not None
    assert cert.coefficients == (0, 1)
    assert cert.kind is OneParamType.HYPERBOLIC
    assert cert.point == (0, 0, 0, 0)


def test_null_rotation_fixed_point_found():
    cert = fixed_point_nonproper_certificate(require_closed((YN1, E2)))
    assert cert is not None
    assert cert.kind is OneParamType.PARABOLIC


def test_no_certificate_for_translations():
    assert fixed_point_nonproper_certificate(require_closed((E1, E2, E3))) is None


def test_compact_clock_kernel_is_the_whole_algebra():
    so3 = require_closed((YK1, YK2, YK3))
    cert = clock_certificate(so3)
    assert cert.kind == "compact" and len(cert.kernel) == so3.dim
    # a compact kernel beside clocks is not the whole algebra
    so2 = require_closed((YK1, E3, E4))
    cert = clock_certificate(so2)
    assert cert.kind == "compact" and len(cert.kernel) == 1 < so2.dim
    assert clock_certificate(require_closed((YA,))) is None


PROPER = [e for e in catalog() if e.proper]
NONPROPER = [e for e in catalog()
             if not e.proper and e.entry_id != "T3:nilpotent-pair"]


@pytest.mark.parametrize("entry", PROPER, ids=lambda e: e.entry_id)
def test_proper_entries_have_no_fixed_point_certificate(entry):
    h = require_closed(entry.build(entry.defaults[0]))
    assert fixed_point_nonproper_certificate(h) is None


@pytest.mark.parametrize("entry", NONPROPER, ids=lambda e: e.entry_id)
def test_nonproper_entries_have_fixed_point_certificate(entry):
    h = require_closed(entry.build(entry.defaults[0]))
    assert fixed_point_nonproper_certificate(h) is not None


def _reference_certificate(h, combo_range=2):
    """The box search the kernel replaced, done the slow way: assemble every
    small integer combination in search order, type it with one_param_type
    and solve it for a fixed point anywhere."""
    singles = [tuple(int(i == j) for j in range(h.dim)) for i in range(h.dim)]
    combos = [c for c in itertools.product(range(-combo_range, combo_range + 1),
                                           repeat=h.dim)
              if any(c) and c not in singles]
    for coeffs in singles + combos:
        elt = _combination(h, coeffs)
        kind = one_param_type(elt.linear)
        if kind not in (OneParamType.HYPERBOLIC, OneParamType.PARABOLIC):
            continue
        sol = solve_linear(elt.linear, tuple(-t for t in elt.trans))
        if sol.particular is not None:
            return FixedPointCert(coefficients=coeffs, kind=kind,
                                  point=tuple(sol.particular))
    return None


def _combination(h, coeffs):
    elt = None
    for c, b in zip(coeffs, h.basis):
        elt = b.scaled(c) if elt is None else elt + b.scaled(c)
    return elt


SEARCH_CASES = [(" ".join([e.entry_id] + [f"{k}={v}" for k, v in sorted(p.items())]),
                 e.build(p))
                for e in catalog() for p in e.defaults] + [
    ("drifting boost", entry_by_id("T2:Ya+le1-W2").build({"lam": Fraction(1, 2)})),
    ("undecorated boost", entry_by_id("T2:Ya-W2").build({})),
    ("drifting null rotation", entry_by_id("T2:Yn1+me4-W2").build({"mu": Fraction(3)})),
    ("undecorated null rotation", entry_by_id("T2:Yn1-W2").build({})),
]

# screw defaults with mu^2 + 4 lam^2 a rational square: their stabilizer fixes
# (0, 0, s, 0) off the origin, where the box search found it and the kernel
# at the origin does not look
OFF_ORIGIN = {"T3:nilpotent-pair lam=1 mu=0", "T3:nilpotent-pair lam=-2 mu=0",
              "T3:nilpotent-pair lam=-2 mu=3"}


@pytest.mark.parametrize("label,basis", SEARCH_CASES, ids=[label for label, _ in SEARCH_CASES])
def test_invariant_search_matches_reference_search(label, basis):
    h = require_closed(basis)
    cert, reference = fixed_point_nonproper_certificate(h), _reference_certificate(h)
    if label in OFF_ORIGIN:
        assert cert is None and reference is not None and any(reference.point)
    else:
        assert cert == reference


@pytest.mark.parametrize("basis", [b for _, b in SEARCH_CASES],
                         ids=[label for label, _ in SEARCH_CASES])
def test_certificate_is_a_noncompact_stabilizer(basis):
    h = require_closed(basis)
    cert = fixed_point_nonproper_certificate(h)
    if cert is not None:
        elt = combination(cert.coefficients, h.basis)
        assert fundamental_field(elt, cert.point) == (0, 0, 0, 0)
        assert one_param_type(elt.linear) is cert.kind


@pytest.mark.parametrize("entry,params", [
    pytest.param(e, p, id=e.entry_id + "".join(f"-{k}={v}" for k, v in p.items()))
    for e in catalog() for p in e.defaults])
def test_catalog_builds_are_in_translation_normal_form(entry, params):
    # the certificate looks for stabilizers at the origin only
    assert require_closed(entry.build(params)).normal_form[0] == (0, 0, 0, 0)


@pytest.mark.parametrize("entry_id,params", [
    ("T4:aK1bA-N", {"a": Fraction(2), "b": Fraction(-1)}),
    ("T4:K1AN", {}),
])
def test_invariant_forms_evaluate_to_trace_and_pfaffian(entry_id, params):
    h = require_closed(entry_by_id(entry_id).build(params))
    trace_form, pf_form = invariant_forms([b.linear for b in h.basis])
    for coeffs in itertools.product(range(-2, 3), repeat=h.dim):
        x = _combination(h, coeffs).linear
        assert quadratic_form(trace_form, coeffs) == trace(matmul(x, x))
        a = matmul(ETA, x)  # skew
        pf = a[0][1] * a[2][3] - a[0][2] * a[1][3] + a[0][3] * a[1][2]
        assert quadratic_form(pf_form, coeffs) == 2 * pf
        assert pf * pf == -char_poly(x)[4]  # Pf(eta X)^2 = det(eta X)


# ---------------------------------------------------------------------------
# clock certificates
# ---------------------------------------------------------------------------

KERNEL_KIND = {
    "T1:R3": "translations", "T1:R21": "translations", "T1:W3": "translations",
    "T2:Ya+le1-W2": "translations", "T2:Yn1+me4-W2": "translations",
    "T2:SO2xR11": "compact", "T3:SO3xRe4": "compact", "Excluded:SO3": "compact",
}


def instantiations(proper):
    return [pytest.param(e, p, id=e.entry_id + "".join(f"-{k}={v}" for k, v in p.items()))
            for e in catalog() if e.proper is proper for p in e.defaults]


@pytest.mark.parametrize("entry,params", instantiations(True))
def test_clock_certificate_holds_on_proper_instantiations(entry, params):
    h = require_closed(entry.build(params))
    cert = clock_certificate(h)
    assert cert is not None
    assert cert.kind == KERNEL_KIND[entry.entry_id]
    # each clock's Lie derivative along each basis element is its constant rate
    for cov, rates in cert.clocks:
        for b, rate in zip(h.basis, rates):
            assert lie_derivative(Poly.covector(cov), b) == Poly.const(rate)
        for z in cert.kernel:  # the kernel stops every clock
            assert lie_derivative(Poly.covector(cov), z).is_zero()


def test_proper_and_nonproper_instantiations_are_counted():
    assert (len(instantiations(True)), len(instantiations(False))) == (9, 25)


@pytest.mark.parametrize("entry,params", instantiations(False))
def test_no_clock_certificate_on_nonproper_instantiations(entry, params):
    assert clock_certificate(require_closed(entry.build(params))) is None


@pytest.mark.parametrize("entry_id,name,zero,live", [
    ("T2:Ya+le1-W2", "lam", Fraction(0), Fraction(1, 2)),
    ("T2:Yn1+me4-W2", "mu", Fraction(0), Fraction(3)),
])
def test_clock_certificate_flips_at_zero_drift(entry_id, name, zero, live):
    entry = entry_by_id(entry_id)
    assert clock_certificate(require_closed(entry.build({name: zero}))) is None
    assert clock_certificate(require_closed(entry.build({name: live}))) is not None


def test_compact_kernel_names_its_fixed_point():
    cert = clock_certificate(require_closed((YK1, E3, E4)))
    assert cert.kind == "compact" and cert.point == (0, 0, 0, 0)
    assert [c for c, _ in cert.clocks] == [(0, 0, 1, 0), (0, 0, 0, 1)]
    assert cert.describe() == ("clock p3 rates (0,1,0), clock p4 rates (0,0,1), "
                               "kernel of dim 1: compact, fixing (0,0,0,0)")


def test_noncompact_kernels_have_no_certificate():
    # a boost spans a noncompact kernel, with or without a clock beside it
    assert clock_certificate(require_closed((YA,))) is None
    assert clock_certificate(require_closed((YA, E1))) is None
    # a loxodromic element has tr(X^2) < 0 but a nonzero Pfaffian
    assert clock_certificate(require_closed((YK1.scaled(2) + YA,))) is None


nonzero_rationals = st.fractions(min_value=-20, max_value=20,
                                 max_denominator=12).filter(lambda x: x != 0)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("T2:Ya+le1-W2", "lam"), ("T2:Yn1+me4-W2", "mu")]),
       nonzero_rationals)
def test_clock_certificate_holds_across_the_drift_families(family, value):
    entry_id, name = family
    cert = clock_certificate(require_closed(entry_by_id(entry_id).build({name: value})))
    assert cert is not None and cert.kind == "translations"
    assert cert.kernel == (E3 - E4,)
    assert value in {rate for _, rates in cert.clocks for rate in rates}


PARAMETRIZED = [e.entry_id for e in catalog() if e.params]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PARAMETRIZED),
       st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                min_size=2, max_size=2))
@example("T3:nilpotent-pair", [Fraction(1), Fraction(0)])
@example("T3:nilpotent-pair", [Fraction(-2), Fraction(3)])
def test_exactly_one_certificate_decides_properness(entry_id, values):
    entry = entry_by_id(entry_id)
    params = dict(zip(entry.params, values))
    assume(entry.admissible(params))
    h = require_closed(entry.build(params))
    clock, stabilizer = clock_certificate(h), fixed_point_nonproper_certificate(h)
    if entry_id == "T3:nilpotent-pair":  # fixed-point free, or fixed off the origin
        assert clock is None and stabilizer is None
    else:
        assert (clock is not None, stabilizer is not None) == (entry.proper, not entry.proper)


# ---------------------------------------------------------------------------
# escaping-sequence witnesses
# ---------------------------------------------------------------------------


def test_hyperbolic_fixed_point_witness_checks_out():
    report = check_witness(fixed_point_witness(YA, (0, 0, 0, 0),
                                               OneParamType.HYPERBOLIC))
    assert report.steps == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
    assert report.group_norms[-1] > 10 * report.group_norms[0]
    assert report.point_gap == 0.0 and report.image_gap == 0.0


def test_parabolic_fixed_point_witness_checks_out():
    report = check_witness(fixed_point_witness(YN1, (0, 0, 0, 0),
                                               OneParamType.PARABOLIC))
    assert report.image_gap < 1e-6


def test_nilpotent_pair_witness_checks_out():
    report = check_witness(nilpotent_pair_witness(Fraction(1), Fraction(3)))
    assert report.group_norms[-1] > 10 * report.group_norms[0]
    assert report.image_gap < 1e-6


def test_bounded_sequence_is_rejected():
    fake = WitnessSequence(
        description="identity forever",
        group_at=lambda n: (np.eye(4), np.zeros(4)),
        point_at=lambda n: np.zeros(4),
    )
    with pytest.raises(WitnessFailedError, match="do not diverge"):
        check_witness(fake)


def test_wandering_base_point_is_rejected():
    fake = WitnessSequence(
        description="diverging group, non-Cauchy points",
        group_at=lambda n: (float(n) * np.eye(4), np.zeros(4)),
        point_at=lambda n: np.array([math.sin(float(n)), 0.0, 0.0, 0.0]),
    )
    with pytest.raises(WitnessFailedError, match="not Cauchy"):
        check_witness(fake)


# ---------------------------------------------------------------------------
# the recovery map
# ---------------------------------------------------------------------------


def certificate(entry_id):
    entry = entry_by_id(entry_id)
    return clock_certificate(require_closed(entry.build(entry.defaults[0])))


def test_clock_recovery_translation_inside_span():
    x, y = vec4(3, 4, 5, 6), vec4(1, 7, 5, 6)
    assert recover_element(certificate("T1:W3"), x, y) == translation(vec4(-2, 3, 0, 0))


def test_clock_recovery_rejects_off_orbit_point():
    # (0, 0, 1, 1) leaves the span e1, e2, e3 - e4: the clock p3 + p4 moves
    with pytest.raises(RecoveryMismatchError, match="clock readings"):
        recover_element(certificate("T1:W3"), vec4(0, 0, 0, 0), vec4(0, 0, 1, 1))


def test_clock_recovery_rotation_translation_roundtrip():
    g = Isometry(rational_rotation_12(Fraction(2, 5)).V, vec4(0, 0, Fraction(7, 3), -2))
    x = vec4(1, 2, 3, 5)
    # the action is free off the axis, so the recovered element is g itself
    assert recover_element(certificate("T2:SO2xR11"), x, act(g, x)) == g


def test_recover_rotation_half_turn_is_out_of_chart():
    with pytest.raises(RecoveryMismatchError, match="no kernel rotation"):
        recover_element(certificate("T2:SO2xR11"), vec4(1, 0, 0, 0), vec4(-1, 0, 0, 0))


def test_clock_recovery_carries_so3_exactly():
    x, y = vec4(1, 2, 2, 0), vec4(3, 0, 0, 0)
    g = recover_element(certificate("Excluded:SO3"), x, y)
    assert act(g, x) == y and lorentz_ok(g.V)
    assert act(g, vec4(0, 0, 0, 7)) == vec4(0, 0, 0, 7)


def test_clock_recovery_requires_equal_norms():
    with pytest.raises(RecoveryMismatchError, match="no kernel rotation"):
        recover_element(certificate("Excluded:SO3"), vec4(1, 0, 0, 0), vec4(2, 0, 0, 0))


def test_clock_recovery_respects_time_constraint():
    # pure rotations stop the clock p4
    with pytest.raises(RecoveryMismatchError, match="clock readings"):
        recover_element(certificate("Excluded:SO3"), vec4(1, 0, 0, 0), vec4(1, 0, 0, 5))


def drift_family_element(h, t, s, w):
    """translation(w (e3 - e4)) o exp(t b_0 + s b_1) on the basis (b_0, b_1, e3 - e4)."""
    return translation(vscale(w, h.basis[2].trans)), exp_element(
        h.basis[0].scaled(t) + h.basis[1].scaled(s), 1)


def test_null_family_recovery_is_exact():
    h = require_closed(entry_by_id("T2:Yn1+me4-W2").build({"mu": Fraction(2)}))
    k, s = drift_family_element(h, Fraction(1, 3), Fraction(-4), Fraction(5, 7))
    g = compose(k, s)
    x = vec4(1, 2, 3, 5)
    # the action is free: the clocks pin t and s, the kernel translation w
    assert recover_element(clock_certificate(h), x, act(g, x)) == g


RECOVERY_CASES = [(e.entry_id, p) for e in catalog() if e.proper for p in e.defaults] + [
    ("T2:Ya+le1-W2", {"lam": Fraction(1, 2)}),
    ("T2:Yn1+me4-W2", {"mu": Fraction(2)}),
]


@pytest.mark.parametrize("entry_id,params", [
    pytest.param(e, p, id=e + "".join(f"-{k}={v}" for k, v in p.items()))
    for e, p in RECOVERY_CASES])
def test_parameter_recovery_families(entry_id, params):
    h = require_closed(entry_by_id(entry_id).build(params))
    kind, kwargs = entry_by_id(entry_id).recovery
    report = parameter_recovery_check(kind, kwargs(params, h.basis), trials=40)
    assert report == RecoveryReport(kind="clock", trials=40)


def test_recovery_is_derived_for_proper_records_only():
    assert {e.entry_id for e in catalog() if e.recovery is not None} == \
        {e.entry_id for e in catalog() if e.proper}


drift_values = st.fractions(min_value=-10**6, max_value=10**6,
                            max_denominator=1000).filter(lambda v: v != 0)
small = st.fractions(min_value=-2, max_value=2, max_denominator=12)
coordinates = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([("T2:Ya+le1-W2", "lam"), ("T2:Yn1+me4-W2", "mu")]),
       drift_values, st.tuples(*[coordinates] * 4), small, small, coordinates)
@example(("T2:Ya+le1-W2", "lam"), Fraction(1, 1000), (1, 2, 3, 5), Fraction(3, 2), 1, 2)
@example(("T2:Ya+le1-W2", "lam"), Fraction(10**6), (1, 2, 3, 5), Fraction(-2), 1, 2)
def test_drift_family_recovery_returns_the_generating_element(family, value, x, t, s, w):
    entry_id, name = family
    assume(t != 0)
    h = require_closed(entry_by_id(entry_id).build({name: value}))
    k, sect = drift_family_element(h, t, s, w)
    x = vec4(*x)
    if isinstance(sect, Isometry):  # null rotation: exact, and the action is free
        g = compose(k, sect)
        assert recover_element(clock_certificate(h), x, act(g, x)) == g
    else:  # boost: float, and equal to the generating element at 1e-9
        y = sect.V @ np.array([float(c) for c in x]) + sect.v + np.array(
            [float(c) for c in k.v])
        got = recover_element(clock_certificate(h), x, y)
        assert np.allclose(got.V, sect.V, rtol=0, atol=1e-9)
        assert np.allclose(got.v, sect.v + np.array([float(c) for c in k.v]),
                           rtol=0, atol=1e-9)


def test_parameter_recovery_unknown_kind():
    with pytest.raises(ValueError, match="unknown recovery kind"):
        parameter_recovery_check("spiral", {}, trials=1)


# the explore benchmark's parameter values: nonzero, hence admissible for every
# family, and away from the catalog defaults
EXPLORE_PARAMS = tuple(Fraction(n, d) for n in (-5, -3, -1, 1, 3, 5) for d in (2, 3)) \
    + (Fraction(2), Fraction(-3))


@pytest.mark.parametrize("entry_id", [e.entry_id for e in catalog() if not e.proper])
def test_witness_passes_at_explore_parameters(entry_id):
    entry = entry_by_id(entry_id)
    checked = 0
    for values in itertools.product(EXPLORE_PARAMS, repeat=len(entry.params)):
        params = dict(zip(entry.params, values))
        if not entry.admissible(params):
            continue
        witness, _ = nonproperness_witness(entry, params, require_closed(entry.build(params)))
        check_witness(witness, steps=1024, tol=1e-6)
        checked += 1
    assert checked == len(EXPLORE_PARAMS) ** len(entry.params)

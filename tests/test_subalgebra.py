"""Subalgebras: closure decisions, translation normal form, invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkact.algebra import (
    GENERATOR_MATRICES,
    GENERATOR_ORDER,
    AlgebraElement,
    adjoint,
    bracket,
    coords10,
    element,
    linear_from_coords,
    standard_generator,
)
from minkact.catalog import catalog
from minkact.group import (
    cayley_so3,
    compose,
    rational_boost_34,
    rational_rotation_12,
    translation,
)
from minkact.linalg import (
    ETA,
    CausalKind,
    DependentBasisError,
    mat_is_zero,
    matmul,
    rank_of,
    reduce_form,
    solve_linear,
    vec4,
)
from minkact.subalgebra import (
    NotClosed,
    OneParamType,
    Subalgebra,
    closure_check,
    invariants,
    lorentz_invariants,
    normalize_translations,
    one_param_type,
    recenter,
    require_closed,
    split_parts,
)

YK1 = standard_generator("Yk1")
YK2 = standard_generator("Yk2")
YK3 = standard_generator("Yk3")
YA = standard_generator("Ya")
YN1 = standard_generator("Yn1")
YN2 = standard_generator("Yn2")
E1 = standard_generator("e1")
E2 = standard_generator("e2")
E3 = standard_generator("e3")
E4 = standard_generator("e4")
ELL = E3 - E4


def test_rotation_and_one_null_rotation_do_not_close():
    verdict = closure_check((YK1, YN1))
    assert isinstance(verdict, NotClosed)
    assert (verdict.i, verdict.j) == (0, 1)
    # [Yk1, Yn1] = -Yn2, which is outside the span
    assert verdict.witness == YN2.scaled(-1)


def test_rotation_with_both_null_rotations_closes():
    h = require_closed((YK1, YN1, YN2))
    assert h.dim == 3
    assert not any(reduce_form(h.echelon_rows, coords10(YN2.scaled(Fraction(-7, 3)))))


def test_closure_check_rejects_dependent_basis():
    with pytest.raises(DependentBasisError):
        closure_check((YK1, YK1.scaled(2)))


def _closure_by_pairs(basis):
    """Reference closure decision: a rank check, then one bracket and one
    span solve per pair, stopping at the first bracket outside the span."""
    coords = [coords10(b) for b in basis]
    if coords and rank_of(coords) != len(basis):
        raise DependentBasisError("basis of a subalgebra must be independent")
    structure = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = bracket(basis[i], basis[j])
            coeffs = solve_linear(list(zip(*coords)), coords10(br)).particular
            if coeffs is None:
                return NotClosed(i=i, j=j, witness=br)
            structure[(i, j)] = coeffs
    return structure


ALL_GENERATORS = [standard_generator(g) for g in (*GENERATOR_ORDER, "e1", "e2", "e3", "e4")]
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def conjugated_recombinations(draw):
    """Integer recombinations of a random subset of the ten generators, with
    the recombination matrix drawn freely (so sometimes singular), moved by
    cayley_so3 o rational_boost_34 o translation."""
    picks = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True))
    mix = [draw(st.lists(st.integers(-2, 2), min_size=len(picks), max_size=len(picks)))
           for _ in picks]
    rotation = draw(st.tuples(small_rationals, small_rationals, small_rationals))
    tau = draw(st.fractions(min_value=Fraction(-4, 5), max_value=Fraction(4, 5),
                            max_denominator=7))
    shift = draw(st.tuples(*[small_rationals] * 4))
    return picks, mix, rotation, tau, shift


@settings(max_examples=150, deadline=None)
@given(conjugated_recombinations())
@example(([0, 4], [[1, 0], [0, 1]], (0, 0, 0), 0, (0, 0, 0, 0)))  # [Yk1, Yn1] = -Yn2
@example(([3, 4, 5], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
          (Fraction(1, 2), -1, 2), Fraction(1, 3), (1, 2, 3, 5)))  # closed
@example(([0, 6], [[1, 2], [2, 4]], (1, 0, 0), 0, (0, 0, 0, 0)))  # dependent
def test_closure_check_agrees_with_the_per_pair_loop(case):
    picks, mix, rotation, tau, shift = case
    g = compose(compose(cayley_so3(*rotation), rational_boost_34(tau)), translation(shift))
    basis = tuple(adjoint(g, sum((ALL_GENERATORS[i].scaled(w) for w, i in zip(weights, picks)),
                                 element()))
                  for weights in mix)
    try:
        expected = _closure_by_pairs(basis)
    except DependentBasisError as err:
        with pytest.raises(DependentBasisError) as raised:
            closure_check(basis)
        assert str(raised.value) == str(err)
        return
    verdict = closure_check(basis)
    if isinstance(expected, NotClosed):
        assert isinstance(verdict, NotClosed)
        assert (verdict.i, verdict.j, verdict.witness) == (expected.i, expected.j, expected.witness)
    else:
        assert verdict.structure == expected


def test_structure_constants_cached_for_closed_spans():
    h = require_closed((YA, YN1, YN2))
    assert h.structure[(0, 1)] is not None
    # [Ya, Yn1] = -Yn1: coefficient vector over the basis
    assert list(h.structure[(0, 1)]) == [0, -1, 0]


def test_split_parts_separates_translations():
    h = require_closed((YK1, E3, E4))
    translations, projection = split_parts(h)
    assert len(translations) == 2 and len(projection) == 1
    assert projection[0] == GENERATOR_MATRICES["Yk1"]


# ---------------------------------------------------------------------------
# one-parameter types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,expected", [
    ("Yk1", OneParamType.ELLIPTIC),
    ("Yk2", OneParamType.ELLIPTIC),
    ("Yk3", OneParamType.ELLIPTIC),
    ("Ya", OneParamType.HYPERBOLIC),
    ("Yn1", OneParamType.PARABOLIC),
    ("Yn2", OneParamType.PARABOLIC),
])
def test_one_param_types_of_generators(name, expected):
    assert one_param_type(GENERATOR_MATRICES[name]) is expected


def test_one_param_type_of_mixture_is_mixed():
    mix = YK1.scaled(2) + YA.scaled(3)
    assert one_param_type(mix.linear) is OneParamType.MIXED


def test_one_param_type_zero():
    zero = tuple((Fraction(0),) * 4 for _ in range(4))
    assert one_param_type(zero) is OneParamType.ZERO


def test_one_param_type_is_conjugation_invariant():
    g = rational_rotation_12(Fraction(1, 5))
    for name in GENERATOR_ORDER:
        x = standard_generator(name)
        assert one_param_type(adjoint(g, x).linear) is one_param_type(x.linear)


def _spectral_type(x):
    """Independent float oracle: the eigenvalues of X are +-a and +-ib."""
    eig = np.linalg.eigvals(np.array([[float(c) for c in row] for row in x]))
    real = bool(np.any(np.abs(eig.real) > 1e-3))
    imag = bool(np.any(np.abs(eig.imag) > 1e-3))
    if real and imag:
        return OneParamType.MIXED
    if real:
        return OneParamType.HYPERBOLIC
    if imag:
        return OneParamType.ELLIPTIC
    return OneParamType.ZERO if mat_is_zero(x) else OneParamType.PARABOLIC


# integer coordinates keep every nonzero real or imaginary eigenvalue part
# far above the float oracle's threshold, nilpotent round-off far below it
small_coords = st.lists(st.integers(-2, 2), min_size=6, max_size=6)
small_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)


@settings(max_examples=300, deadline=None)
@given(small_coords)
@example([0, 0, 0, 0, 0, 0])
@example([0, 0, 0, 0, 1, 0])
@example([0, 0, 0, 1, 0, 0])
@example([1, 0, 0, 0, 0, 0])
@example([1, 0, 0, 1, 0, 0])
def test_one_param_type_matches_the_spectrum(coords):
    x = linear_from_coords(coords)
    assert one_param_type(x) is _spectral_type(x)


@settings(max_examples=150, deadline=None)
@given(small_coords, small_rationals, small_rationals, small_rationals,
       st.fractions(min_value=Fraction(-3, 4), max_value=Fraction(3, 4),
                    max_denominator=4))
def test_one_param_type_matches_the_spectrum_of_lorentz_conjugates(
        coords, a, b, c, tau):
    x = AlgebraElement(linear_from_coords(coords), vec4(0, 0, 0, 0))
    g = compose(cayley_so3(a, b, c), rational_boost_34(tau))
    y = adjoint(g, x).linear
    assert one_param_type(y) is _spectral_type(y)
    assert one_param_type(y) is one_param_type(x.linear)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=10**6),
                min_size=6, max_size=6))
@example([0, 0, 0, 0, 0, 0])
@example([Fraction(1, 999983), 0, 0, Fraction(-7, 1000000), 0, 0])
def test_lorentz_invariants_are_the_trace_and_pfaffian(coords):
    x = linear_from_coords(coords)
    m = matmul(ETA, x)  # eta X is antisymmetric
    trace_sq = sum(x[i][j] * x[j][i] for i in range(4) for j in range(4))
    pfaffian = m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]
    got = lorentz_invariants(x)
    assert got == (trace_sq, pfaffian)
    assert all(type(v) is Fraction for v in got)


# ---------------------------------------------------------------------------
# translation normal form
# ---------------------------------------------------------------------------


def test_normalize_fully_decorated_lorentz_algebra():
    """All six generators with their forced translation decorations move to a
    common fixed point; the normalizing vector is determined by the four
    family parameters."""
    u1, u2, v1, x3 = 1, 2, 3, 5
    decorations = (
        (u1, u2, 0, 0), (v1, 0, u2, 0), (0, v1, -u1, 0),
        (0, 0, x3, v1), (x3 + v1, 0, u2, -u2), (0, x3 + v1, -u1, u1),
    )
    basis = tuple(
        AlgebraElement(GENERATOR_MATRICES[n], vec4(*d))
        for n, d in zip(GENERATOR_ORDER, decorations)
    )
    p, hn = normalize_translations(require_closed(basis))
    assert p == vec4(u2, -u1, -v1, -x3)
    assert all(b.trans == vec4(0, 0, 0, 0) for b in hn.basis)


def test_normalize_keeps_essential_decorations():
    # the drifting boost: the e1 component cannot be translated away
    lam = Fraction(5, 2)
    h = require_closed((YA + E1.scaled(lam), E2, ELL))
    p, hn = normalize_translations(h)
    assert p == vec4(0, 0, 0, 0)
    assert hn.basis[0].trans == vec4(lam, 0, 0, 0)


def test_normalize_undoes_translation_conjugation():
    lam = Fraction(5, 2)
    h = require_closed((YA + E1.scaled(lam), E2, ELL))
    q = vec4(-10, Fraction(39, 4), 5, Fraction(-60, 7))
    conj = require_closed(tuple(adjoint(translation(q), b) for b in h.basis))
    p, hn = normalize_translations(conj)
    # only the boost plane of q is visible to this family, and modulo the
    # null line e3 - e4 only q3 + q4 is: the canonical p carries it alone
    assert p == vec4(0, 0, q[2] + q[3], 0)
    # the boost keeps its drift; the rest of q sits on the null line e3 - e4,
    # which the algebra contains
    assert hn.basis[0].trans == vec4(lam, 0, -q[3], q[3])
    assert hn.echelon_rows == h.echelon_rows


def test_normalize_decorated_null_rotations():
    lam, mu = Fraction(1), Fraction(3)
    basis = (YN1 + E2.scaled(lam), YN2 + E1.scaled(lam) + E2.scaled(mu), ELL)
    h = require_closed(basis)
    q = vec4(2, -3, 1, 4)
    conj = require_closed(tuple(adjoint(translation(q), b) for b in h.basis))
    p, hn = normalize_translations(conj)
    # translating along e1 or e2 moves the decorations along the null line,
    # which the algebra contains, so the conjugate spans the same algebra
    assert p == vec4(0, 0, q[2] + q[3], 0)
    assert hn.echelon_rows == h.echelon_rows


def test_normal_form_depends_on_the_span_not_the_basis():
    lam, mu = Fraction(1), Fraction(3)
    a, b = YN1 + E2.scaled(lam), YN2 + E1.scaled(lam) + E2.scaled(mu)
    q = vec4(Fraction(1, 2), -3, Fraction(7, 3), 4)
    conj = [adjoint(translation(q), x) for x in (a, b, ELL)]
    bases = (conj, [conj[1] + conj[0].scaled(2), conj[2] + conj[1], conj[0]])
    forms = [require_closed(basis).normal_form for basis in bases]
    assert forms[0] == forms[1]
    p, rows = forms[0]
    assert p == vec4(0, 0, q[2] + q[3], 0)
    assert rows == recenter(require_closed(conj), p).echelon_rows
    assert rows == require_closed((a, b, ELL)).echelon_rows


DEFAULT_INSTANTIATIONS = [pytest.param(e, params, id=f"{e.entry_id}-{i}")
                          for e in catalog() for i, params in enumerate(e.defaults)]


@pytest.mark.parametrize("entry, params", DEFAULT_INSTANTIATIONS)
def test_conjugates_carry_the_structure_constants(entry, params):
    # translation and Lorentz conjugation are automorphisms, so the structure
    # constants a conjugate carries over are the ones closure would compute
    h = require_closed(entry.build(params))
    _, hn = normalize_translations(h)
    assert hn.structure == closure_check(hn.basis).structure
    g = compose(compose(cayley_so3(Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)),
                        rational_boost_34(Fraction(1, 3))),
                translation(vec4(Fraction(7, 2), -4, Fraction(9, 5), 3)))
    conj = Subalgebra(tuple(adjoint(g, b) for b in h.basis), h.structure)
    assert conj.structure == closure_check(conj.basis).structure


def test_normalization_residuals_are_conjugation_invariant():
    """The surviving decorations after normalization must not depend on where
    the group sits in space — they are the family's true parameters."""
    basis = (YN1 + E4.scaled(3), E2, ELL)
    h = require_closed(basis)
    _, hn0 = normalize_translations(h)
    for q in (vec4(1, 2, 3, 5), vec4(0, -7, Fraction(1, 3), 0)):
        conj = require_closed(tuple(adjoint(translation(q), b) for b in h.basis))
        _, hn = normalize_translations(conj)
        assert hn.echelon_rows == hn0.echelon_rows


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_invariants_of_boost_with_spacelike_plane():
    inv = invariants(require_closed((YA, E1, E2)))
    assert inv.translation_causal.kind is CausalKind.SPACELIKE
    assert inv.one_param_profile == (OneParamType.HYPERBOLIC,)
    assert inv.describe() == ("dim 3; translations 2 (Spacelike (2,0,0)); "
                              "linear 1 [Hyperbolic]")


def test_invariants_profile_is_sorted_and_conjugation_invariant():
    h = require_closed((YK1, YA, YN1, YN2))
    inv = invariants(h)
    assert inv.one_param_profile == (
        OneParamType.ELLIPTIC, OneParamType.HYPERBOLIC,
        OneParamType.PARABOLIC, OneParamType.PARABOLIC)
    g = translation(vec4(1, 2, 3, 5))
    conj = require_closed(tuple(adjoint(g, b) for b in h.basis))
    assert invariants(conj) == inv


def test_invariants_profile_reads_projection_not_basis():
    # basis mixes Yk1 into a hyperbolic element; the projection span is what counts
    h = require_closed((YK1.scaled(2), YA + YK1, E3 - E4))
    inv = invariants(h)
    assert inv.one_param_profile == (OneParamType.ELLIPTIC, OneParamType.HYPERBOLIC)


def test_describe_is_stable():
    inv = invariants(require_closed((YK1, E3, E4)))
    assert inv.describe() == ("dim 3; translations 2 (Lorentzian (1,1,0)); "
                              "linear 1 [Elliptic]")

"""Group layer: exact/numeric exponentials, composition, adjoint consistency."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_subalgebra import small_coords

from minkact.algebra import AlgebraElement, adjoint, linear_from_coords, standard_generator
from minkact.group import (
    Isometry,
    act,
    cayley,
    cayley_so3,
    compose,
    exp_element,
    exp_element_exact,
    exp_element_numeric,
    exp_map,
    lorentz_ok,
    rational_boost_34,
    rational_rotation_12,
    translation,
)
from minkact.linalg import ETA, IDENTITY4, ZERO4, matmul, transpose, vec4

IDENTITY = Isometry(IDENTITY4, ZERO4)


def lorentz_ok_numeric(V, tol=1e-9) -> bool:
    """Float check of V^t.eta.V = eta, entrywise at tol."""
    gram = matmul(transpose(V), matmul(ETA, V))
    return all(abs(a - b) <= tol for ra, rb in zip(gram, ETA) for a, b in zip(ra, rb))


def test_translation_compose_invert_act():
    g = translation(vec4(1, 2, 3, 5))
    h = translation(vec4(-1, 0, 0, 2))
    gh = compose(g, h)
    assert gh.v == vec4(0, 2, 3, 7)
    assert compose(g, translation(vec4(-1, -2, -3, -5))) == IDENTITY
    assert act(g, vec4(0, 0, 0, 0)) == vec4(1, 2, 3, 5)


def test_exact_exponential_of_null_rotation():
    n1 = standard_generator("Yn1")
    g = exp_element_exact(n1, Fraction(1, 2))
    assert lorentz_ok(g.V)
    # one-parameter law, exactly
    a = exp_element_exact(n1, Fraction(1, 3))
    b = exp_element_exact(n1, Fraction(1, 6))
    assert compose(a, b) == g


def test_exact_exponential_of_translation():
    e2 = standard_generator("e2")
    g = exp_element_exact(e2.scaled(Fraction(3, 4)), 2)
    assert g == translation(vec4(0, Fraction(3, 2), 0, 0))


def test_exact_exponential_rejects_boosts():
    with pytest.raises(ValueError):
        exp_element_exact(standard_generator("Ya"), 1)


def test_exp_element_dispatch():
    ya = standard_generator("Ya")
    numeric = exp_element(ya, 1)  # exact impossible -> numeric fallback
    assert isinstance(numeric, Isometry)
    assert all(type(c) is float for c in (*numeric.v, *(c for row in numeric.V for c in row)))
    exact = exp_element(standard_generator("Yn2"), Fraction(2))
    assert isinstance(exact, Isometry)
    assert all(type(c) is Fraction for c in (*exact.v, *(c for row in exact.V for c in row)))


@pytest.mark.parametrize("name", ["Yk1", "Yk2", "Yk3", "Ya", "Yn1", "Yn2"])
def test_numeric_exponentials_agree_with_expm(name):
    x = standard_generator(name)
    t = 0.7
    ours = exp_element_numeric(x, t)
    theirs = scipy.linalg.expm(t * np.array([[float(c) for c in row]
                                             for row in x.linear]))
    assert np.allclose(ours.V, theirs, atol=1e-12)
    assert lorentz_ok_numeric(ours.V)


def test_numeric_exponential_with_translation_part():
    # a decorated null rotation: the affine part matters
    elt = standard_generator("Yn1") + standard_generator("e2").scaled(3)
    g = exp_element_numeric(elt, 1.0)
    exact = exp_element_exact(elt, 1)
    assert np.allclose(g.V, [[float(c) for c in row] for row in exact.V], atol=1e-12)
    assert np.allclose(g.v, [float(c) for c in exact.v], atol=1e-12)


def test_rational_rotation_and_boost_are_exact_isometries():
    r = rational_rotation_12(Fraction(1, 3))
    b = rational_boost_34(Fraction(1, 2))
    assert lorentz_ok(r.V) and lorentz_ok(b.V)
    # half-angle parametrization composes rationally
    rr = compose(r, r)
    assert lorentz_ok(rr.V)
    assert compose(rational_boost_34(Fraction(-1, 2)), b) == IDENTITY


def test_rational_boost_rejects_superluminal_parameter():
    with pytest.raises(ValueError):
        rational_boost_34(2)


def test_cayley_so3_produces_rotations():
    g = cayley_so3(Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
    assert lorentz_ok(g.V)
    # fixes the time axis
    assert act(g, vec4(0, 0, 0, 7)) == vec4(0, 0, 0, 7)


def test_cayley_transform_about_a_point():
    # 2/3 Yk1 generates the (e1,e2) rotations; its transform has tan-half-angle -2/3
    p = vec4(1, -2, 3, 5)
    g = cayley(standard_generator("Yk1").scaled(Fraction(2, 3)).linear, p)
    assert g.V == rational_rotation_12(Fraction(-2, 3)).V
    assert lorentz_ok(g.V) and act(g, p) == p


def test_cayley_transform_needs_invertible_i_minus_a():
    with pytest.raises(ValueError, match="singular"):
        cayley(standard_generator("Ya").linear)


def test_adjoint_matches_finite_difference():
    """Ad(g) X should be the derivative of g exp(tX) g^{-1} at t = 0."""
    g = compose(rational_boost_34(Fraction(1, 3)),
                translation(vec4(1, -2, 0, 1)))
    g_inv = compose(translation(vec4(-1, 2, 0, -1)), rational_boost_34(Fraction(-1, 3)))
    assert compose(g, g_inv) == IDENTITY
    for name in ("Yk2", "Yn1", "Ya"):
        x = standard_generator(name)
        ad = adjoint(g, x)
        t = 1e-4
        # conjugated curve c(t) = g exp(tX) g^{-1}, in floats
        curve = compose(compose(g, exp_element_numeric(x, t)), g_inv)
        dv = (np.array(curve.V) - np.eye(4)) / t
        dw = np.array(curve.v) / t
        assert np.allclose(dv, [[float(c) for c in row] for row in ad.linear],
                           atol=1e-3)
        assert np.allclose(dw, [float(c) for c in ad.trans], atol=1e-3)


def test_one_parameter_law_numeric():
    rng_ts = [(0.3, 0.4), (1.0, -0.25), (-0.7, -0.6)]
    for name in ("Yk3", "Ya", "Yn2"):
        x = standard_generator(name)
        for s, t in rng_ts:
            gs, gt = exp_element_numeric(x, s), exp_element_numeric(x, t)
            gst = exp_element_numeric(x, s + t)
            assert np.allclose(compose(gs, gt).V, gst.V, atol=1e-10)


def test_mixed_generator_exponential_is_still_lorentz():
    mix = standard_generator("Yk1").scaled(2) + standard_generator("Ya").scaled(3)
    g = exp_element_numeric(mix, 0.5)
    assert lorentz_ok_numeric(g.V, tol=1e-9)
    assert all(math.isfinite(c) for row in g.V for c in row)


_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
# a nilpotent, a boost, a rotation and a mixed linear part, scaled and conjugated below
_LINEAR_KINDS = {
    "nilpotent": standard_generator("Yn1"),
    "boost": standard_generator("Ya"),
    "rotation": standard_generator("Yk3"),
    "mixed": standard_generator("Ya") + standard_generator("Yk1").scaled(Fraction(2, 3)),
}


def _bits(g):
    """An isometry's kind and entries, repr'd: equal exactly when the bits are."""
    return type(g).__name__, repr(g.V), repr(g.v)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_LINEAR_KINDS)), _FRACTIONS.filter(bool),
       st.tuples(*[_FRACTIONS] * 3), _FRACTIONS.filter(lambda tau: abs(tau) < 1),
       st.one_of(st.just((0, 0, 0, 0)), st.tuples(*[_FRACTIONS] * 4)),
       st.lists(st.one_of(st.floats(-3, 3), _FRACTIONS, st.integers(-3, 3)),
                min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_one_map_matches_a_fresh_exponential_at_every_t_in_any_order(
        kind, scale, rotation, tau, trans, ts, rng):
    # what the map computes once per element may not depend on which t came first
    g = compose(cayley_so3(*rotation), rational_boost_34(tau))
    linear = adjoint(g, _LINEAR_KINDS[kind].scaled(scale)).linear
    elt = AlgebraElement(linear, vec4(*trans))
    fresh = {repr(t): _bits(exp_element(elt, t)) for t in ts}
    exp_elt = exp_map(elt)
    for order in (ts, rng.sample(ts, len(ts))):
        assert [_bits(exp_elt(t)) for t in order] == [fresh[repr(t)] for t in order]


def embed5(a):
    """5x5 homogeneous float matrix: linear part top-left, translation last column."""
    m = np.zeros((5, 5))
    m[:4, :4], m[:4, 4] = a.linear, a.trans
    return m


@settings(max_examples=300, deadline=None)
@given(small_coords, st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.floats(min_value=-3, max_value=3))
@example([0, 0, 0, 1, 0, 0], [1, 0, 0, 0], 1.5)  # Ya + e1: beta = 0
@example([1, 0, 0, 0, 0, 0], [0, 0, 1, 0], 1.5)  # Yk1 + e3: alpha = 0
@example([2, 0, 0, 3, 0, 0], [0, 0, 0, 0], 1.5)  # 2 Yk1 + 3 Ya: mixed
@example([0, 0, 0, 0, 1, 0], [0, 3, 0, 0], 1.5)  # Yn1 + 3 e2: nilpotent
def test_numeric_exponential_matches_expm(coords, trans, t):
    elt = AlgebraElement(linear_from_coords(coords), vec4(*trans))
    ours = exp_element_numeric(elt, t)
    theirs = scipy.linalg.expm(t * embed5(elt))
    scale = max(1.0, float(np.abs(theirs).max()))
    assert np.abs(np.array(ours.V) - theirs[:4, :4]).max() <= 1e-10 * scale
    assert np.abs(np.array(ours.v) - theirs[:4, 4]).max() <= 1e-10 * scale

"""Lie algebra of the isometry group: generators, brackets, fields, lifts.

The golden bracket table below is the printed reference for the six linear
generators.  The test regenerates every bracket from the matrices and demands
exact agreement, so any slip in either the matrices or the table is caught
with zero tolerance.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkact.algebra import (
    GENERATOR_MATRICES,
    GENERATOR_ORDER,
    AlgebraElement,
    NotClosedError,
    adjoint,
    bracket,
    bracket10,
    coords10,
    element,
    eta_skew_ok,
    from_coords10,
    fundamental_field,
    lift_constraints,
    linear_coords,
    linear_from_coords,
    standard_generator,
)
from minkact.group import Isometry, rational_boost_34, rational_rotation_12, translation
from minkact.linalg import mat_is_zero, spans_equal, vec4

GENS = {name: standard_generator(name) for name in GENERATOR_ORDER}

# golden table: [row, col] -> exact expansion in the generator basis
GOLDEN_BRACKETS = {
    ("Yk1", "Yk2"): {"Yk3": -1},
    ("Yk1", "Yk3"): {"Yk2": 1},
    ("Yk2", "Yk3"): {"Yk1": -1},
    ("Yk1", "Ya"): {},
    ("Yk2", "Ya"): {"Yk2": -1, "Yn1": 1},
    ("Yk3", "Ya"): {"Yk3": -1, "Yn2": 1},
    ("Yk1", "Yn1"): {"Yn2": -1},
    ("Yk1", "Yn2"): {"Yn1": 1},
    ("Yk2", "Yn1"): {"Ya": -1},
    ("Yk2", "Yn2"): {"Yk1": -1},
    ("Yk3", "Yn1"): {"Yk1": 1},
    ("Yk3", "Yn2"): {"Ya": -1},
    ("Ya", "Yn1"): {"Yn1": -1},
    ("Ya", "Yn2"): {"Yn2": -1},
    ("Yn1", "Yn2"): {},
}


def combo(coeffs):
    out = element()
    for name, c in coeffs.items():
        out = out + GENS[name].scaled(c)
    return out


def test_golden_table_is_complete():
    assert len(GOLDEN_BRACKETS) == 15  # all unordered generator pairs


@pytest.mark.parametrize("pair", sorted(GOLDEN_BRACKETS))
def test_structure_relations_match_matrices(pair):
    a, b = pair
    got = bracket(GENS[a], GENS[b])
    want = combo(GOLDEN_BRACKETS[pair])
    assert got == want


def test_generators_lie_in_lorentz_algebra():
    for name in GENERATOR_ORDER:
        assert eta_skew_ok(GENERATOR_MATRICES[name])


def test_bracket_antisymmetry_on_generators():
    for a in GENERATOR_ORDER:
        for b in GENERATOR_ORDER:
            lhs = bracket(GENS[a], GENS[b])
            rhs = bracket(GENS[b], GENS[a])
            assert lhs == rhs.scaled(-1)


def test_bracket_of_translations_vanishes():
    e1 = standard_generator("e1")
    e4 = standard_generator("e4")
    assert bracket(e1, e4) == element()


def test_bracket_linear_with_translation():
    # [X, v] acts as X.v on the translation part
    ya = GENS["Ya"]
    e4 = standard_generator("e4")
    br = bracket(ya, e4)
    assert mat_is_zero(br.linear)
    assert br.trans == vec4(0, 0, 1, 0)


@pytest.mark.parametrize("name,point,expected", [
    ("Yk1", (1, 0, 0, 0), (0, -1, 0, 0)),
    ("Yk1", (1, 2, 3, 5), (2, -1, 0, 0)),
    ("Yk2", (1, 2, 3, 5), (3, 0, -1, 0)),
    ("Yk3", (1, 2, 3, 5), (0, 3, -2, 0)),
    ("Ya", (1, 2, 3, 5), (0, 0, 5, 3)),
    ("Yn1", (1, 2, 3, 5), (8, 0, -1, 1)),
    ("Yn2", (1, 2, 3, 5), (0, 8, -2, 2)),
])
def test_fundamental_field_values(name, point, expected):
    got = fundamental_field(GENS[name], vec4(*point))
    assert got == vec4(*expected)


def test_fundamental_field_of_bracket_is_commutator_of_fields():
    # [X,Y]p = X(Yp) - Y(Xp) for the linear parts acting on points
    x, y = GENS["Yk2"], GENS["Yn1"]
    p = vec4(1, -2, Fraction(3, 4), 5)
    br = fundamental_field(bracket(x, y), p)
    xy = fundamental_field(x, fundamental_field(y, p))
    yx = fundamental_field(y, fundamental_field(x, p))
    assert br == vec4(*(a - b for a, b in zip(xy, yx)))


def test_coords10_roundtrip():
    elt = (GENS["Yk2"].scaled(Fraction(3, 7)) + GENS["Yn1"].scaled(-2)
           + standard_generator("e3").scaled(Fraction(1, 2)))
    assert from_coords10(coords10(elt)) == elt
    lin = linear_from_coords(linear_coords(elt.linear))
    assert lin == elt.linear


def test_adjoint_of_translation_shifts_translation_part():
    g = translation(vec4(1, 2, 3, 5))
    ya = GENS["Ya"]
    out = adjoint(g, ya)
    assert out.linear == ya.linear
    # Ad(I, q)(X, 0) = (X, -X q); here Ya.q = (0,0,5,3)
    assert out.trans == vec4(0, 0, -5, -3)


def test_adjoint_of_rotation_conjugates_linear_part():
    g = rational_rotation_12(Fraction(1, 3))
    x = GENS["Yn1"]
    out = adjoint(g, x)
    assert eta_skew_ok(out.linear)
    # rotating the (1,2)-plane carries Yn1 into the span of Yn1 and Yn2
    c = coords10(out)
    assert all(c[i] == 0 for i in (0, 1, 2, 3)) and (c[4], c[5]) != (0, 0)
    assert all(x == 0 for x in c[6:])


def test_adjoint_is_a_homomorphism():
    g = rational_boost_34(Fraction(1, 2))
    k = Isometry(rational_rotation_12(Fraction(2, 5)).V, vec4(1, 0, -1, 2))
    from minkact.group import compose
    gh = compose(g, k)
    x = GENS["Yk2"] + standard_generator("e4").scaled(3)
    assert adjoint(gh, x) == adjoint(g, adjoint(k, x))


# ---------------------------------------------------------------------------
# translation lifts
# ---------------------------------------------------------------------------


def full_family_assignment(u1, u2, v1, x3):
    """The forced-translation family over all six generators."""
    u = (u1, u2, 0, 0)
    v = (v1, 0, u2, 0)
    w = (0, v1, -u1, 0)
    x = (0, 0, x3, v1)
    y = (x3 + v1, 0, u2, -u2)
    z = (0, x3 + v1, -u1, u1)
    return sum((tuple(map(Fraction, t)) for t in (u, v, w, x, y, z)), ())


def test_lift_of_full_lorentz_algebra_is_four_parameters():
    mats = [GENERATOR_MATRICES[n] for n in GENERATOR_ORDER]
    fam = lift_constraints(mats)
    assert fam.dim == 4
    expected = [full_family_assignment(*e)
                for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    assert spans_equal(fam.flattened(), expected)


def test_lifted_full_family_closes():
    from minkact.subalgebra import require_closed
    vals = full_family_assignment(1, 2, 3, 5)
    mats = [GENERATOR_MATRICES[n] for n in GENERATOR_ORDER]
    basis = tuple(AlgebraElement(m, vals[4 * i:4 * i + 4]) for i, m in enumerate(mats))
    require_closed(basis)  # raises on failure


def test_lift_with_null_line_allowed():
    # the rotation+boost+null span over the null line: decorations modulo ell
    mats = [GENERATOR_MATRICES[n] for n in ("Yk1", "Ya", "Yn1", "Yn2")]
    fam = lift_constraints(mats, translation_span=(vec4(0, 0, 1, -1),))
    # strictly more freedom than the absolute lift of the same span
    strict = lift_constraints(mats)
    assert fam.dim >= strict.dim


def test_lift_rejects_non_subalgebra():
    mats = [GENERATOR_MATRICES[n] for n in ("Yk1", "Yn1")]
    with pytest.raises(NotClosedError):
        lift_constraints(mats)


coords = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
                  min_size=10, max_size=10)


@settings(max_examples=100, deadline=None)
@given(coords, coords)
def test_structure_table_bracket_matches_the_matrix_bracket(u, v):
    a, b = from_coords10(u), from_coords10(v)
    assert tuple(bracket10(coords10(a), coords10(b))) == coords10(bracket(a, b))

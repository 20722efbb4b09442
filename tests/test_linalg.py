"""Exact linear algebra kernel: echelon forms, solving, causal classification."""

from fractions import Fraction

import pytest

from minkact.linalg import (
    CausalClass,
    CausalKind,
    causal_type,
    char_poly,
    classify_signature,
    echelon_basis,
    frac,
    kernel_of,
    mat,
    mink_inner,
    rank_of,
    reduce_mod,
    rref,
    solve_linear,
    span_contains,
    spans_equal,
    sylvester_signature,
    vec4,
)


def test_frac_accepts_ints_and_strings():
    assert frac(3) == Fraction(3)
    assert frac("1/2") == Fraction(1, 2)
    assert frac(Fraction(-2, 7)) == Fraction(-2, 7)


def test_mink_inner_signature():
    assert mink_inner(vec4(1, 0, 0, 0), vec4(1, 0, 0, 0)) == 1
    assert mink_inner(vec4(0, 0, 0, 1), vec4(0, 0, 0, 1)) == -1
    # the null direction e3 - e4
    ell = vec4(0, 0, 1, -1)
    assert mink_inner(ell, ell) == 0
    assert mink_inner(ell, vec4(0, 0, 0, 1)) == 1


def test_rref_pivots_and_idempotence():
    rows = [
        [2, 4, 0, 2],
        [1, 2, 1, 0],
        [3, 6, 1, 2],
    ]
    reduced, pivots = rref([list(map(Fraction, r)) for r in rows])
    assert list(pivots) == [0, 2]
    again, pivots2 = rref([list(r) for r in reduced if any(x != 0 for x in r)])
    assert list(pivots2) == list(pivots)
    assert [list(r) for r in again] == [list(r) for r in reduced if any(x != 0 for x in r)]


def test_rref_pivot_limit_leaves_augmented_column_unpivoted():
    # x + y = 1 and 2x + 2y = 3 are inconsistent: with the bound the
    # contradiction stays in the right-hand side instead of taking a pivot
    rows = [[1, 1, 1], [2, 2, 3]]
    reduced, pivots = rref([list(map(Fraction, r)) for r in rows], pivot_limit=2)
    assert pivots == [0]
    assert reduced == [(1, 1, 1), (0, 0, 1)]
    assert rref([list(map(Fraction, r)) for r in rows])[1] == [0, 2]


def test_reduce_mod_echelon_basis():
    ech = echelon_basis([(1, 0, 2, 0), (0, 1, 0, 3)])
    assert reduce_mod(ech, (2, -1, 4, -3)) == (0, 0, 0, 0)
    assert reduce_mod(ech, (1, 1, 3, 3)) == (0, 0, 1, 0)
    assert reduce_mod([], (1, 2, 3, 4)) == (1, 2, 3, 4)


def test_rank_and_span_membership():
    v1 = (1, 0, 2, 0)
    v2 = (0, 1, 0, 3)
    assert rank_of([v1, v2]) == 2
    coeffs = span_contains([v1, v2], (2, -1, 4, -3))
    assert coeffs == (Fraction(2), Fraction(-1))
    assert span_contains([v1, v2], (0, 0, 1, 0)) is None


def test_spans_equal_is_orderless():
    a = [(1, 0, 0, 0), (0, 1, 0, 0)]
    b = [(1, 1, 0, 0), (1, -1, 0, 0)]
    assert spans_equal(a, b)
    assert not spans_equal(a, [(1, 0, 0, 0)])


def test_echelon_basis_canonical():
    basis = echelon_basis([(2, 2, 0, 0), (0, 0, 0, 0), (1, 1, 1, 0)])
    assert basis == [(Fraction(1), Fraction(1), Fraction(0), Fraction(0)),
                     (Fraction(0), Fraction(0), Fraction(1), Fraction(0))]


def test_solve_linear_particular_and_kernel():
    a = mat([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    sol = solve_linear(a, (3, 5, 0, 0))
    assert sol.particular is not None
    x = sol.particular
    assert x[0] + x[2] == 3 and x[1] == 5
    assert len(sol.kernel) == 2
    # inconsistent right-hand side
    bad = solve_linear(a, (0, 0, 1, 0))
    assert bad.particular is None


def test_kernel_of_matches_rank():
    a = mat([[1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    ker = kernel_of(a)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(a[i][j] * v[j] for j in range(4)) == 0 for i in range(4))


def test_char_poly_known_matrices():
    ident = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # (x-1)^4 = x^4 - 4x^3 + 6x^2 - 4x + 1
    assert char_poly(ident) == (1, -4, 6, -4, 1)
    rot = mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    # x^2(x^2+1)
    assert char_poly(rot) == (1, 0, 1, 0, 0)


@pytest.mark.parametrize("vectors,expected", [
    ([], (CausalKind.SPACELIKE, 0, 0, 0)),
    ([vec4(1, 0, 0, 0)], (CausalKind.SPACELIKE, 1, 0, 0)),
    ([vec4(0, 0, 0, 2)], (CausalKind.TIMELIKE, 0, 1, 0)),
    ([vec4(0, 0, 1, -1)], (CausalKind.LIGHTLIKE, 0, 0, 1)),
    ([vec4(1, 0, 0, 0), vec4(0, 0, 0, 1)], (CausalKind.LORENTZIAN, 1, 1, 0)),
    ([vec4(0, 1, 0, 0), vec4(0, 0, 1, -1)], (CausalKind.DEGENERATE, 1, 0, 1)),
    ([vec4(1, 0, 0, 0), vec4(0, 1, 0, 0), vec4(0, 0, 1, 0)],
     (CausalKind.SPACELIKE, 3, 0, 0)),
    ([vec4(0, 1, 0, 0), vec4(0, 0, 1, 0), vec4(0, 0, 0, 1)],
     (CausalKind.LORENTZIAN, 2, 1, 0)),
    ([vec4(1, 0, 0, 0), vec4(0, 1, 0, 0), vec4(0, 0, 1, -1)],
     (CausalKind.DEGENERATE, 2, 0, 1)),
])
def test_causal_type_catalogued_planes(vectors, expected):
    got = causal_type(vectors)
    kind, np_, nm, nz = expected
    assert got == CausalClass(kind, np_, nm, nz)


def test_causal_type_is_basis_independent():
    # same degenerate plane W2 in two different bases
    a = causal_type([vec4(0, 1, 0, 0), vec4(0, 0, 1, -1)])
    b = causal_type([vec4(0, 2, 1, -1), vec4(0, 1, 1, -1)])
    assert a == b


def test_sylvester_signature_congruence_invariance():
    assert sylvester_signature([[Fraction(1), Fraction(0)],
                                [Fraction(0), Fraction(-1)]]) == (1, 1, 0)
    # zero diagonal with nonzero off-diagonal: the hyperbolic-plane repair
    assert sylvester_signature([[Fraction(0), Fraction(1)],
                                [Fraction(1), Fraction(0)]]) == (1, 1, 0)
    assert classify_signature(1, 1, 0).kind is CausalKind.LORENTZIAN
    assert classify_signature(0, 0, 1).kind is CausalKind.LIGHTLIKE


def test_causal_class_str():
    c = CausalClass(CausalKind.DEGENERATE, 2, 0, 1)
    assert str(c) == "Degenerate (2,0,1)"

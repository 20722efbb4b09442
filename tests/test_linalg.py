"""Exact linear algebra kernel: echelon forms, solving, causal classification."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minkact.linalg import (
    CausalClass,
    CausalKind,
    causal_type,
    char_poly,
    classify_signature,
    echelon_basis,
    echelon_form,
    frac,
    integer_rank,
    integer_rref,
    integral,
    kernel_of,
    mat,
    mink_inner,
    rank_of,
    reduce_form,
    rref,
    solve_linear,
    spans_equal,
    sylvester_signature,
    vec4,
)


def test_frac_accepts_ints_and_fractions_only():
    assert frac(3) == Fraction(3)
    assert frac(Fraction(-2, 7)) == Fraction(-2, 7)
    with pytest.raises(TypeError):
        frac("1/2")


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
    form = echelon_form([(1, 0, 2, 0), (0, 1, 0, 3)])
    assert form == (((1, 0, 2, 0), (0, 1, 0, 3)), 1)
    assert reduce_form(form, (2, -1, 4, -3)) == (0, 0, 0, 0)
    assert reduce_form(form, (1, 1, 3, 3)) == (0, 0, 1, 0)
    assert reduce_form(echelon_form([]), (1, 2, 3, 4)) == (1, 2, 3, 4)
    # the reduced row (1, 0, 1/2, 0) over d = 2: d times the remainder
    half = echelon_form([(Fraction(-4, 3), 0, Fraction(-2, 3), 0)])
    assert half == (((2, 0, 1, 0),), 2)
    assert reduce_form(half, (1, 0, 0, 0)) == (0, 0, -1, 0)


def test_rank_and_span_membership():
    v1 = (1, 0, 2, 0)
    v2 = (0, 1, 0, 3)
    assert rank_of([v1, v2]) == 2
    columns = list(zip(v1, v2))
    assert solve_linear(columns, (2, -1, 4, -3)).particular == (Fraction(2), Fraction(-1))
    assert solve_linear(columns, (0, 0, 1, 0)).particular is None


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


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)


@st.composite
def rational_matrices(draw, entries=rationals):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
@example([[Fraction(1, 2), Fraction(1, 3)], [Fraction(-1, 5), Fraction(0)]])
def test_char_poly_matches_sympy(rows):
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])
    expected = tuple(Fraction(int(c.p), int(c.q)) for c in m.charpoly().all_coeffs())
    assert char_poly(rows) == expected


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_integral_clears_the_common_denominator(rows):
    ints, d = integral(rows)
    assert d == math.lcm(*(x.denominator for row in rows for x in row))
    assert all(type(x) is int for row in ints for x in row)
    assert [[Fraction(x, d) for x in row] for row in ints] == rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices(st.integers(-4, 4) | st.just(0)), st.integers(0, 2))
@example([[0, 0, 0]], 0)
@example([[2, 4, 6], [1, 2, 3]], 0)
def test_integer_rref_gives_the_rref_rows_at_content_one(rows, repeats):
    rows = rows + rows[:repeats]  # dependent rows
    ints, pivots = integer_rref(rows)
    reduced, rref_pivots = rref([[Fraction(x) for x in row] for row in rows])
    assert pivots == rref_pivots
    assert all(math.gcd(*row) == 1 for row in ints)
    assert [tuple(Fraction(x, row[c]) for x in row) for row, c in zip(ints, pivots)] \
        == reduced[:len(pivots)]


# entries of more than 500 bits, of either sign
huge = st.integers(2 ** 500, 2 ** 520) | st.integers(-2 ** 520, -2 ** 500)
int_entries = st.just(0) | st.integers(-9, 9) | huge


@st.composite
def integer_matrices_with_repeats(draw):
    """0-12 integer rows of 1-10 columns: drawn rows, zero rows, repeated
    rows and integer combinations of drawn rows, in a random order."""
    cols = draw(st.integers(1, 10))
    free = draw(st.lists(st.lists(int_entries, min_size=cols, max_size=cols), max_size=8))
    extra = []
    for _ in range(draw(st.integers(0, 12 - len(free)))):
        kind = draw(st.sampled_from(("zero", "repeat", "combination")))
        if kind == "zero" or not free:
            extra.append([0] * cols)
        elif kind == "repeat":
            extra.append(list(draw(st.sampled_from(free))))
        else:
            weights = draw(st.lists(st.integers(-5, 5), min_size=len(free), max_size=len(free)))
            extra.append([sum(w * row[c] for w, row in zip(weights, free)) for c in range(cols)])
    return draw(st.permutations(free + extra))


@settings(max_examples=300, deadline=None)
@given(integer_matrices_with_repeats())
@example([])
@example([[0]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[2, 4, 6], [1, 2, 3], [-3, -6, -9]])
@example([[0, 2 ** 600, 1], [0, 2 ** 600 + 1, -1], [0, 1, -2]])
def test_integer_rank_is_the_rref_pivot_count(rows):
    assert integer_rank(rows) == len(integer_rref(rows)[1])


@st.composite
def matrices_with_dependent_rows(draw):
    """1-6 rows of 1-8 rational columns: some drawn freely, the rest zero rows
    or rational combinations of those, in a random order."""
    cols = draw(st.integers(1, 8))
    free = [draw(st.lists(rationals | st.just(Fraction(0)), min_size=cols, max_size=cols))
            for _ in range(draw(st.integers(1, 4)))]
    extra = []
    for _ in range(draw(st.integers(0, 2))):
        weights = draw(st.lists(rationals | st.just(Fraction(0)),
                                min_size=len(free), max_size=len(free)))
        extra.append([sum((w * row[c] for w, row in zip(weights, free)), Fraction(0))
                      for c in range(cols)])
    return draw(st.permutations(free + extra))


def _sympy_rref(rows):
    """sympy oracle: the reduced rows as Fractions and the pivot columns."""
    reduced, pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                    for row in rows]).rref()
    return ([tuple(Fraction(int(x.p), int(x.q)) for x in reduced.row(i))
             for i in range(reduced.rows)], list(pivots))


@settings(max_examples=200, deadline=None)
@given(matrices_with_dependent_rows(), st.integers(0, 8))
@example([[Fraction(1), Fraction(1), Fraction(1)], [Fraction(2), Fraction(2), Fraction(3)]], 2)
@example([[Fraction(0), Fraction(0)], [Fraction(0), Fraction(5, 3)]], 1)
def test_rref_matches_sympy(rows, limit):
    reduced, pivots = rref(rows)
    assert (reduced, pivots) == _sympy_rref(rows)
    # every output row, with a pivot limit too, stays in the row space
    limited, limited_pivots = rref(rows, pivot_limit=limit)
    assert sympy.Matrix(rows + limited).rank() == len(pivots)
    # with the limit, the left block is the reduced form of the left block
    left, left_pivots = _sympy_rref([row[:limit] for row in rows]) if limit else ([], [])
    assert limited_pivots == left_pivots
    assert [row[:limit] for row in limited] == (left or [()] * len(rows))
    # the last column as a right-hand side: A x = b whenever a solution comes back
    if len(rows[0]) > 1:
        a, b = [row[:-1] for row in rows], [row[-1] for row in rows]
        sol = solve_linear(a, b)
        assert (sol.particular is None) == (pivots[-1:] == [len(rows[0]) - 1])
        if sol.particular is not None:
            assert [sum(x * y for x, y in zip(row, sol.particular)) for row in a] == b
        for v in sol.kernel:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@settings(max_examples=200, deadline=None)
@given(matrices_with_dependent_rows())
@example([[Fraction(2), Fraction(3), Fraction(0)], [Fraction(0), Fraction(5), Fraction(7)]])
@example([[Fraction(1, 2), Fraction(-1, 3)]])
def test_kernel_of_is_sympy_nullspace_made_primitive(rows):
    # one vector per free column: a primitive integer multiple, positive
    # there, of sympy's vector with a 1 there, so the spans agree
    oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                           for row in rows]).nullspace()
    pivots = _sympy_rref(rows)[1]
    free = [c for c in range(len(rows[0])) if c not in pivots]
    kernel = kernel_of(rows)
    assert len(kernel) == len(oracle) == len(free)
    for v, w, f in zip(kernel, oracle, free):
        assert all(isinstance(x, Fraction) and x.denominator == 1 for x in v)
        assert math.gcd(*(int(x) for x in v)) == 1
        assert v[f] > 0
        assert [v[f] * Fraction(int(x.p), int(x.q)) for x in w] == list(v)


@settings(max_examples=200, deadline=None)
@given(matrices_with_dependent_rows())
@example([[Fraction(0), Fraction(0)]])
@example([[Fraction(-4, 3), Fraction(2, 9)], [Fraction(1, 6), Fraction(0)]])
def test_echelon_form_is_the_sympy_rref_times_its_denominator(rows):
    ints, d = echelon_form(rows)
    reduced, pivots = _sympy_rref(rows)
    assert d > 0 and all(type(x) is int for row in ints for x in row)
    assert list(ints) == [tuple(d * x for x in row) for row in reduced[:len(pivots)]]
    assert [row[c] for row, c in zip(ints, pivots)] == [d] * len(pivots)
    assert math.gcd(d, *(x for row in ints for x in row)) == 1
    assert echelon_basis(rows) == reduced[:len(pivots)]


@settings(max_examples=200, deadline=None)
@given(matrices_with_dependent_rows(), st.data())
def test_two_bases_of_one_span_give_one_echelon_form(rows, data):
    # an invertible change of basis: unit lower-triangular integer shears,
    # nonzero rational scales and a new order
    m, cols = len(rows), len(rows[0])
    shears = data.draw(st.lists(st.integers(-3, 3), min_size=m * m, max_size=m * m))
    scales = data.draw(st.lists(rationals.filter(bool), min_size=m, max_size=m))
    order = data.draw(st.permutations(range(m)))
    mixed = [[scales[i] * (rows[i][c] + sum(shears[m * i + j] * rows[j][c] for j in range(i)))
              for c in range(cols)] for i in range(m)]
    form = echelon_form(rows)
    assert echelon_form([mixed[i] for i in order]) == form
    assert echelon_form(rows + mixed) == form
    assert spans_equal(mixed, rows)


@settings(max_examples=200, deadline=None)
@given(matrices_with_dependent_rows(), st.data())
def test_reduce_form_is_d_times_the_remainder_and_linear(rows, data):
    cols = len(rows[0])
    u, v = (data.draw(st.lists(rationals, min_size=cols, max_size=cols)) for _ in range(2))
    a, b = data.draw(rationals), data.draw(rationals)
    form = echelon_form(rows)
    reduced, pivots = _sympy_rref(rows)
    # the Fraction remainder: zero on the pivot columns, u less a vector of the span
    remainder = [x - sum((u[c] * r[k] for r, c in zip(reduced, pivots)), Fraction(0))
                 for k, x in enumerate(u)]
    assert not any(remainder[c] for c in pivots)
    assert sympy.Matrix(rows + [[x - y for x, y in zip(u, remainder)]]).rank() == len(pivots)
    assert reduce_form(form, u) == tuple(form[1] * x for x in remainder)
    combined = reduce_form(form, [a * x + b * y for x, y in zip(u, v)])
    assert combined == tuple(a * x + b * y
                             for x, y in zip(reduce_form(form, u), reduce_form(form, v)))
    assert all(type(x) is int for x in reduce_form(form, range(cols)))


def _eigenvalue_signs(gram):
    """sympy oracle: signs of the (real) eigenvalues of a symmetric matrix."""
    lam = sympy.Symbol("lam")
    roots = sympy.Poly(sympy.Matrix(gram).charpoly(lam).as_expr(), lam).real_roots()
    n_plus = sum(1 for r in roots if r > 0)
    n_minus = sum(1 for r in roots if r < 0)
    return n_plus, n_minus, len(gram) - n_plus - n_minus


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 5))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=7) | st.just(Fraction(0))
    m = [[Fraction(0)] * n for _ in range(n)]
    zero_diagonal = draw(st.booleans())
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(0) if i == j and zero_diagonal else draw(entries)
    return m


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
@example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
@example([[Fraction(0)] * 3] * 3)
@example([[Fraction(0), Fraction(1), Fraction(1)],
          [Fraction(1), Fraction(0), Fraction(1)],
          [Fraction(1), Fraction(1), Fraction(0)]])
def test_sylvester_signature_counts_eigenvalue_signs(gram):
    assert sylvester_signature(gram) == _eigenvalue_signs(gram)
    scale = math.lcm(*(x.denominator for row in gram for x in row))
    assert sylvester_signature([[int(x * scale) for x in row] for row in gram]) \
        == _eigenvalue_signs(gram)


def test_causal_class_str():
    c = CausalClass(CausalKind.DEGENERATE, 2, 0, 1)
    assert str(c) == "Degenerate (2,0,1)"

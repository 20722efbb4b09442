"""The isometry algebra so(3,1) (+) R^{3,1} of Minkowski 4-space.

Elements are pairs (X, x): an eta-skew 4x4 linear part plus a translation
vector.  This module owns the six standard Lorentz generators, the bracket,
structure constants, the adjoint action of the isometry group, fundamental
(Killing) vector fields, and the solver that lifts a linear subalgebra to decorated elements whose
pairwise brackets stay inside the lifted span.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .linalg import (
    ETA,
    IDENTITY4,
    ZERO4,
    ZERO_MAT4,
    DependentBasisError,
    echelon_form,
    frac,
    integer_rref,
    integral,
    mat,
    mat_add,
    mat_is_zero,
    mat_scale,
    mat_sub,
    matmul,
    matvec,
    reduce_form,
    solve_linear,
    transpose,
    vadd,
    vscale,
    vsub,
)


class NotClosedError(ValueError):
    """A supposed subalgebra failed bracket closure; carries a witness."""

    def __init__(self, i, j, residual):
        self.i = i
        self.j = j
        self.residual = residual
        super().__init__(f"bracket of basis elements {i} and {j} leaves the span")


def _eij(i, j):
    return tuple(tuple(int((r, c) == (i, j)) for c in range(1, 5)) for r in range(1, 5))


# The six standard generators of the Lorentz algebra in the Iwasawa order:
# three rotations, one boost, two null rotations, with integer entries.
YK1 = mat_sub(_eij(1, 2), _eij(2, 1))
YK2 = mat_sub(_eij(1, 3), _eij(3, 1))
YK3 = mat_sub(_eij(2, 3), _eij(3, 2))
YA = mat_add(_eij(3, 4), _eij(4, 3))
YN1 = mat_add(mat_sub(mat_add(_eij(1, 3), _eij(1, 4)), _eij(3, 1)), _eij(4, 1))
YN2 = mat_add(mat_sub(mat_add(_eij(2, 3), _eij(2, 4)), _eij(3, 2)), _eij(4, 2))

GENERATOR_ORDER = ("Yk1", "Yk2", "Yk3", "Ya", "Yn1", "Yn2")
GENERATOR_MATRICES = dict(zip(GENERATOR_ORDER, map(mat, (YK1, YK2, YK3, YA, YN1, YN2))))
TRANSLATION_VECTORS = {f"e{m}": e for m, e in enumerate(IDENTITY4, 1)}


class AlgebraElement(NamedTuple):
    """Pair (linear, trans): eta-skew matrix plus translation vector."""

    linear: tuple
    trans: tuple

    def __add__(self, other):
        return AlgebraElement(mat_add(self.linear, other.linear), vadd(self.trans, other.trans))

    def __sub__(self, other):
        return AlgebraElement(mat_sub(self.linear, other.linear), vsub(self.trans, other.trans))

    def scaled(self, c):
        return AlgebraElement(mat_scale(c, self.linear), vscale(c, self.trans))


def element() -> AlgebraElement:
    """The zero element."""
    return AlgebraElement(ZERO_MAT4, ZERO4)


def standard_generator(label) -> AlgebraElement:
    """The exact generator for a label: Yk*/Ya/Yn* matrices or e1..e4 translations."""
    if label in GENERATOR_MATRICES:
        return AlgebraElement(GENERATOR_MATRICES[label], ZERO4)
    low = label.lower()
    if low in TRANSLATION_VECTORS:
        return AlgebraElement(ZERO_MAT4, TRANSLATION_VECTORS[low])
    raise KeyError(f"unknown generator label: {label!r}")


def eta_skew_ok(x) -> bool:
    """Whether X^t.eta + eta.X = 0, i.e. X lies in the Lorentz algebra."""
    return mat_is_zero(mat_add(matmul(transpose(x), ETA), matmul(ETA, x)))


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[X+x, Y+y] = (XY - YX) + (Xy - Yx)."""
    lin = mat_sub(matmul(a.linear, b.linear), matmul(b.linear, a.linear))
    tr = vsub(matvec(a.linear, b.trans), matvec(b.linear, a.trans))
    return AlgebraElement(lin, tr)


def lorentz_inverse(v):
    """Inverse of a Lorentz matrix via eta V^t eta (exact, no elimination)."""
    return matmul(ETA, matmul(transpose(v), ETA))


def adjoint(g, a: AlgebraElement) -> AlgebraElement:
    """Ad(V,v)(X+x) = VXV^{-1} + (Vx - VXV^{-1} v)."""
    v_mat, v_vec = g  # an Isometry or a (V, v) pair
    conj = matmul(v_mat, matmul(a.linear, lorentz_inverse(v_mat)))
    tr = vsub(matvec(v_mat, a.trans), matvec(conj, v_vec))
    return AlgebraElement(conj, tr)


def structure_constants(basis) -> dict:
    """Coordinates of each bracket [basis_i, basis_j], i < j, in ``basis``.

    One fraction-free reduction decides everything: the coordinates of the
    basis, times their common denominator d, are the coefficient columns (the
    only ones pivoted on) and their brackets, d^2 times :func:`bracket10`, are
    the right-hand sides.  The basis is independent when every coefficient
    column takes a pivot; a bracket lies in the span when its column vanishes
    below the pivot rows, which then hold d times its coefficients.  Raises
    DependentBasisError for dependent input, and NotClosedError with the first
    pair (i, j) outside the span and its bracket, read off the same integer
    rows, otherwise.
    """
    k = len(basis)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    rows, d = integral([coords10(b) for b in basis])
    columns = rows + [bracket10(rows[i], rows[j]) for i, j in pairs]
    reduced, pivots = integer_rref(list(zip(*columns)), pivot_limit=k)
    if len(pivots) != k:
        raise DependentBasisError("basis of a subalgebra must be independent")
    for col, (i, j) in enumerate(pairs, k):
        if any(row[col] for row in reduced[k:]):
            raise NotClosedError(i, j, from_coords10(
                [Fraction(x, d * d) for x in bracket10(rows[i], rows[j])]))
    return {pair: tuple(Fraction(row[col], row[p] * d) for row, p in zip(reduced, pivots))
            for col, pair in enumerate(pairs, k)}


def fundamental_field(a: AlgebraElement, p) -> tuple:
    """Value at p of the Killing field generated by a: linear.p + trans."""
    return vadd(matvec(a.linear, p), a.trans)


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------
#
# Any eta-skew matrix decomposes uniquely over the six generators; the
# extraction below reads the combination straight off the entries
# (k2 and k3 need the null-generator corrections).


def linear_coords(x) -> tuple:
    k1 = x[0][1]
    n1 = x[0][3]
    k2 = x[0][2] - n1
    n2 = x[1][3]
    k3 = x[1][2] - n2
    a = x[2][3]
    return (k1, k2, k3, a, n1, n2)


def linear_from_coords(c, number=frac):
    """The eta-skew matrix with generator coefficients ``c``, written entry by
    entry as the inverse of :func:`linear_coords`, in the type ``number``
    makes of them: Fractions, or ints for integer coefficients."""
    k1, k2, k3, a, n1, n2 = map(number, c)
    r, s, z = k2 + n1, k3 + n2, number(0)
    return ((z, k1, r, n1), (-k1, z, s, n2), (-r, -s, z, a), (n1, n2, a, z))


def coords10(a: AlgebraElement) -> tuple:
    """Flatten to (six generator coefficients, four translation entries)."""
    return linear_coords(a.linear) + tuple(a.trans)


def from_coords10(c) -> AlgebraElement:
    return AlgebraElement(linear_from_coords(c[:6]), tuple(frac(x) for x in c[6:]))


def _structure_table():
    """Per pair a < b of the ten standard generators (coords10 order) with a
    nonzero bracket, (a, b, ((m, c), ...)): [g_a, g_b] = sum of c g_m.  Read
    off the integer matrices: [X, Y] = XY - YX and [X, e_m] = column m of X."""
    lin = (YK1, YK2, YK3, YA, YN1, YN2)
    brackets = [(a, b, linear_coords(mat_sub(matmul(x, y), matmul(y, x))) + (0,) * 4)
                for a, x in enumerate(lin) for b, y in enumerate(lin) if a < b]
    brackets += [(a, 6 + m, (0,) * 6 + tuple(row[m] for row in x))
                 for a, x in enumerate(lin) for m in range(4)]
    return tuple((a, b, tuple((m, c) for m, c in enumerate(br) if c))
                 for a, b, br in brackets if any(br))


STRUCTURE_TABLE = _structure_table()


def bracket10(u, v):
    """coords10 of [A, B] from coords10 ``u`` of A and ``v`` of B, through the
    structure table alone: ints stay ints, so no Fraction arithmetic runs."""
    out = [0] * 10
    for a, b, terms in STRUCTURE_TABLE:
        w = u[a] * v[b] - u[b] * v[a]
        if w:
            for m, c in terms:
                out[m] += c * w
    return out


# ---------------------------------------------------------------------------
# Lifting a linear subalgebra to decorated elements
# ---------------------------------------------------------------------------


class LiftFamily(NamedTuple):
    """Solution space of translation decorations for a linear subalgebra.

    Each basis entry assigns one translation 4-vector per projected basis
    element; the family is a linear space (assignments close under addition).
    """

    n_elements: int
    basis: tuple  # tuple of assignments; each assignment is a tuple of 4-vectors
    rank: int

    @property
    def dim(self):
        return len(self.basis)

    def flattened(self):
        return [sum((tuple(v) for v in assignment), ()) for assignment in self.basis]


def reduction_matrix(span_vectors):
    """Matrix of d times the linear map 'reduce modulo span' on R^4, for d
    the denominator of the span's :func:`echelon_form`: its kernel is the span."""
    form = echelon_form(span_vectors)
    return transpose([reduce_form(form, e) for e in IDENTITY4])


def lift_constraints(proj_basis, translation_span=()) -> LiftFamily:
    """Solve for translation decorations that keep all brackets in the span.

    ``proj_basis`` must span a Lie subalgebra of the Lorentz algebra (checked;
    NotClosedError carries the offending pair otherwise).  One unknown
    4-vector t_i is attached to each basis element; the constraints demand
    that for every pair, [X_i + t_i, X_j + t_j] minus its forced linear
    combination of lifted elements lands inside ``translation_span``.  The
    result is the exact kernel of that homogeneous system.
    """
    k = len(proj_basis)
    structure = structure_constants([AlgebraElement(x, ZERO4) for x in proj_basis])
    reduce_mat = reduction_matrix(translation_span)
    rows = []
    nunk = 4 * k
    for (i, j), coeffs in structure.items():
        # component m of X_i t_j - X_j t_i - sum_l c_l t_l, as a row over unknowns
        block = []
        for m in range(4):
            row = [Fraction(0)] * nunk
            for n in range(4):
                row[4 * j + n] += proj_basis[i][m][n]
                row[4 * i + n] -= proj_basis[j][m][n]
            for l, c in enumerate(coeffs):
                if c != 0:
                    row[4 * l + m] -= c
            block.append(row)
        # impose reduce_mat . block = 0 (membership in the translation span)
        rows.extend(row for row in matmul(reduce_mat, block)
                    if any(x != 0 for x in row))
    rows = rows or [[Fraction(0)] * nunk]  # unconstrained: the kernel is everything
    sol = solve_linear(rows, [0] * len(rows))
    assignments = tuple(
        tuple(tuple(v[4 * i + m] for m in range(4)) for i in range(k)) for v in sol.kernel
    )
    return LiftFamily(k, assignments, sol.rank)

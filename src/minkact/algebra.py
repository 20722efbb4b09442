"""The isometry algebra so(3,1) (+) R^{3,1} of Minkowski 4-space.

Elements are pairs (X, x): an eta-skew 4x4 linear part plus a translation
vector.  This module owns the six standard Lorentz generators, the bracket,
the adjoint action of the isometry group, fundamental (Killing) vector fields,
and the solver that lifts a linear subalgebra to decorated elements whose
pairwise brackets stay inside the lifted span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    ETA,
    IDENTITY4,
    ZERO4,
    ZERO_MAT4,
    DependentBasisError,
    echelon_basis,
    frac,
    is_zero_vec,
    kernel_of,
    mat,
    mat_add,
    mat_is_zero,
    mat_scale,
    mat_sub,
    matmul,
    matvec,
    rank_of,
    reduce_mod,
    span_contains,
    transpose,
    vadd,
    vec4,
    vscale,
    vsub,
)


class NotClosedError(ValueError):
    """A supposed subalgebra failed bracket closure; carries a witness."""

    def __init__(self, i, j, residual, message=None):
        self.i = i
        self.j = j
        self.residual = residual
        super().__init__(message or f"bracket of basis elements {i} and {j} leaves the span")


def _eij(i, j):
    rows = [[0] * 4 for _ in range(4)]
    rows[i - 1][j - 1] = 1
    return mat(rows)


# The six standard generators of the Lorentz algebra in the Iwasawa order:
# three rotations, one boost, two null rotations.
YK1 = mat_sub(_eij(1, 2), _eij(2, 1))
YK2 = mat_sub(_eij(1, 3), _eij(3, 1))
YK3 = mat_sub(_eij(2, 3), _eij(3, 2))
YA = mat_add(_eij(3, 4), _eij(4, 3))
YN1 = mat_add(mat_sub(mat_add(_eij(1, 3), _eij(1, 4)), _eij(3, 1)), _eij(4, 1))
YN2 = mat_add(mat_sub(mat_add(_eij(2, 3), _eij(2, 4)), _eij(3, 2)), _eij(4, 2))

GENERATOR_ORDER = ("Yk1", "Yk2", "Yk3", "Ya", "Yn1", "Yn2")
GENERATOR_MATRICES = {
    "Yk1": YK1,
    "Yk2": YK2,
    "Yk3": YK3,
    "Ya": YA,
    "Yn1": YN1,
    "Yn2": YN2,
}
TRANSLATION_VECTORS = {
    "e1": vec4(1, 0, 0, 0),
    "e2": vec4(0, 1, 0, 0),
    "e3": vec4(0, 0, 1, 0),
    "e4": vec4(0, 0, 0, 1),
}


@dataclass(frozen=True)
class AlgebraElement:
    """Pair (linear, trans): eta-skew matrix plus translation vector."""

    linear: tuple
    trans: tuple

    def __add__(self, other):
        return AlgebraElement(mat_add(self.linear, other.linear), vadd(self.trans, other.trans))

    def __sub__(self, other):
        return AlgebraElement(mat_sub(self.linear, other.linear), vsub(self.trans, other.trans))

    def __neg__(self):
        return AlgebraElement(mat_scale(-1, self.linear), vscale(-1, self.trans))

    def scaled(self, c):
        return AlgebraElement(mat_scale(c, self.linear), vscale(c, self.trans))

    def is_zero(self):
        return mat_is_zero(self.linear) and is_zero_vec(self.trans)


def element(linear=None, trans=None) -> AlgebraElement:
    return AlgebraElement(linear if linear is not None else ZERO_MAT4,
                          tuple(frac(t) for t in trans) if trans is not None else ZERO4)


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


def _group_parts(g):
    """Accept an isometry-like object: (V, v) tuple or attributes .V/.v."""
    if isinstance(g, tuple):
        return g
    return g.V, g.v


def lorentz_inverse(v):
    """Inverse of a Lorentz matrix via eta V^t eta (exact, no elimination)."""
    return matmul(ETA, matmul(transpose(v), ETA))


def adjoint(g, a: AlgebraElement) -> AlgebraElement:
    """Ad(V,v)(X+x) = VXV^{-1} + (Vx - VXV^{-1} v)."""
    v_mat, v_vec = _group_parts(g)
    conj = matmul(v_mat, matmul(a.linear, lorentz_inverse(v_mat)))
    tr = vsub(matvec(v_mat, a.trans), matvec(conj, v_vec))
    return AlgebraElement(conj, tr)


def cartan_involution(x):
    """theta(X) = -X^t; fixes the rotation span, negates the boost/null span."""
    return mat_scale(-1, transpose(x))


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


def linear_from_coords(c):
    out = ZERO_MAT4
    for coeff, g in zip(c, GENERATOR_ORDER):
        if coeff != 0:
            out = mat_add(out, mat_scale(coeff, GENERATOR_MATRICES[g]))
    return out


def coords10(a: AlgebraElement) -> tuple:
    """Flatten to (six generator coefficients, four translation entries)."""
    return linear_coords(a.linear) + tuple(a.trans)


def from_coords10(c) -> AlgebraElement:
    return AlgebraElement(linear_from_coords(c[:6]), tuple(frac(x) for x in c[6:]))


# ---------------------------------------------------------------------------
# Lifting a linear subalgebra to decorated elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftFamily:
    """Solution space of translation decorations for a linear subalgebra.

    Each basis entry assigns one translation 4-vector per projected basis
    element; the family is a linear space (assignments close under addition).
    """

    n_elements: int
    basis: tuple  # tuple of assignments; each assignment is a tuple of 4-vectors
    rank: int
    translation_span: tuple

    @property
    def dim(self):
        return len(self.basis)

    def flattened(self):
        return [sum((tuple(v) for v in assignment), ()) for assignment in self.basis]


def reduction_matrix(span_vectors):
    """Matrix of the linear map 'reduce modulo span' on R^4 (kills the span)."""
    ech = echelon_basis(list(span_vectors))
    return transpose([reduce_mod(ech, e) for e in IDENTITY4])


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
    if k == 0:
        return LiftFamily(0, (), 0, tuple(translation_span))
    coords = [linear_coords(x) for x in proj_basis]
    if rank_of(coords) != k:
        raise DependentBasisError("projected basis is linearly dependent")
    structure = {}
    for i in range(k):
        for j in range(i + 1, k):
            br = mat_sub(matmul(proj_basis[i], proj_basis[j]),
                         matmul(proj_basis[j], proj_basis[i]))
            coeffs = span_contains(coords, linear_coords(br))
            if coeffs is None:
                raise NotClosedError(i, j, br)
            structure[(i, j)] = coeffs

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
    if not rows:
        basis_flat = [tuple(Fraction(1) if t == s else Fraction(0) for t in range(nunk))
                      for s in range(nunk)]
        rank = 0
    else:
        basis_flat = list(kernel_of(rows))
        rank = rank_of(rows)
    assignments = tuple(
        tuple(tuple(v[4 * i + m] for m in range(4)) for i in range(k)) for v in basis_flat
    )
    return LiftFamily(k, assignments, rank, tuple(translation_span))

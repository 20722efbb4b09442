"""The isometry group O(3,1) x R^{3,1} (semidirect): composition, inversion,
the affine action on points, and exponentials of algebra elements.

Two variants coexist: an exact one over Fractions for everything the
classification logic touches, and a float one (numpy/scipy) used only where
transcendental exponentials are unavoidable (boosts, rotations by generic
angles, properness sequences).  Exact rational rotations and boosts are
available through half-angle/half-velocity parameterizations for tests and
recovery trials that must stay in the rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .algebra import AlgebraElement, lorentz_inverse
from .linalg import (
    ETA,
    IDENTITY4,
    ZERO4,
    frac,
    mat,
    matmul,
    matvec,
    rref,
    transpose,
    vadd,
    vneg,
)


class VariantMismatchError(TypeError):
    """Raised when exact and numeric isometries are mixed in one operation."""


@dataclass(frozen=True)
class Isometry:
    """Exact isometry (V, v): Lorentz matrix plus translation."""

    V: tuple
    v: tuple


@dataclass(frozen=True)
class NumericIsometry:
    """Float isometry for sequence evaluation; entries are numpy arrays."""

    V: np.ndarray
    v: np.ndarray


def lorentz_ok(V) -> bool:
    """Exact check of V^t.eta.V = eta."""
    return matmul(transpose(V), matmul(ETA, V)) == ETA


def lorentz_ok_numeric(V, tol=1e-9) -> bool:
    eta = np.diag([1.0, 1.0, 1.0, -1.0])
    return bool(np.max(np.abs(V.T @ eta @ V - eta)) <= tol)


def compose(g, h):
    """(V,v)(U,u) = (VU, v + V u)."""
    if isinstance(g, Isometry) and isinstance(h, Isometry):
        return Isometry(matmul(g.V, h.V), vadd(g.v, matvec(g.V, h.v)))
    if isinstance(g, NumericIsometry) and isinstance(h, NumericIsometry):
        return NumericIsometry(g.V @ h.V, g.v + g.V @ h.v)
    raise VariantMismatchError("cannot compose exact and numeric isometries")


def invert(g):
    """(V,v)^{-1} = (V^{-1}, -V^{-1} v) with V^{-1} = eta V^t eta."""
    if isinstance(g, Isometry):
        vinv = lorentz_inverse(g.V)
        return Isometry(vinv, vneg(matvec(vinv, g.v)))
    eta = np.diag([1.0, 1.0, 1.0, -1.0])
    vinv = eta @ g.V.T @ eta
    return NumericIsometry(vinv, -(vinv @ g.v))


def act(g, p):
    """Affine action: p -> V p + v."""
    if isinstance(g, Isometry):
        return vadd(matvec(g.V, p), g.v)
    return g.V @ np.asarray(p, dtype=float) + g.v


def translation(p) -> Isometry:
    return Isometry(IDENTITY4, tuple(frac(x) for x in p))


def to_numeric(g: Isometry) -> NumericIsometry:
    return NumericIsometry(
        np.array([[float(x) for x in row] for row in g.V]),
        np.array([float(x) for x in g.v]),
    )


# ---------------------------------------------------------------------------
# Exponentials
# ---------------------------------------------------------------------------


def embed5(a: AlgebraElement):
    """5x5 homogeneous embedding: linear part top-left, translation last column."""
    rows = [list(a.linear[i]) + [a.trans[i]] for i in range(4)]
    rows.append([0, 0, 0, 0, 0])
    return mat(rows)


def _is_nilpotent5(m) -> bool:
    p = m
    for _ in range(4):
        p = matmul(p, m)
    return all(x == 0 for row in p for x in row)


def exp_element_exact(a: AlgebraElement, t) -> Isometry:
    """Exact exponential of t*a; only defined when the series terminates.

    That happens exactly when the linear part is nilpotent (null rotations,
    pure translations); degree at most 4 in the 5x5 embedding.
    """
    t = frac(t)
    m = embed5(a.scaled(t))
    if not _is_nilpotent5(m):
        raise ValueError("exponential series does not terminate; use the numeric variant")
    ident5 = mat([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    total = ident5
    power = ident5
    factorial = 1
    for k in range(1, 5):
        power = matmul(power, m)
        factorial *= k
        total = tuple(
            tuple(x + y / factorial for x, y in zip(row_t, row_p))
            for row_t, row_p in zip(total, power)
        )
    v_mat = tuple(tuple(total[i][j] for j in range(4)) for i in range(4))
    v_vec = tuple(total[i][4] for i in range(4))
    return Isometry(v_mat, v_vec)


def exp_element_numeric(a: AlgebraElement, t: float) -> NumericIsometry:
    """Float exponential via scaling-and-squaring on the 5x5 embedding."""
    m = np.zeros((5, 5))
    for i in range(4):
        for j in range(4):
            m[i, j] = float(a.linear[i][j])
        m[i, 4] = float(a.trans[i])
    e = expm(float(t) * m)
    return NumericIsometry(e[:4, :4].copy(), e[:4, 4].copy())


def exp_element(a: AlgebraElement, t):
    """Exponential of t*a: exact when the series terminates, numeric otherwise.

    A float t always selects the numeric variant; exact scalars stay exact
    whenever the linear part is nilpotent and fall back to floats if not.
    """
    if not isinstance(t, float):
        try:
            return exp_element_exact(a, t)
        except ValueError:
            pass
    return exp_element_numeric(a, float(t))


# ---------------------------------------------------------------------------
# Exact rational one-parameter families (half-angle / half-velocity forms)
# ---------------------------------------------------------------------------


def rational_rotation_12(tau) -> Isometry:
    """Rotation in the (e1,e2) plane with cos/sin rationalized by tan-half-angle."""
    tau = frac(tau)
    d = 1 + tau * tau
    c, s = (1 - tau * tau) / d, 2 * tau / d
    return Isometry(mat([[c, -s, 0, 0], [s, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]), ZERO4)


def rational_boost_34(tau) -> Isometry:
    """Boost in the (e3,e4) plane, rationalized by tanh-half-velocity (|tau| < 1)."""
    tau = frac(tau)
    if not -1 < tau < 1:
        raise ValueError("half-velocity parameter must lie in (-1, 1)")
    d = 1 - tau * tau
    ch, sh = (1 + tau * tau) / d, 2 * tau / d
    return Isometry(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, ch, sh], [0, 0, sh, ch]]), ZERO4)


def cayley_so3(a, b, c) -> Isometry:
    """Exact rotation block from the Cayley transform of a skew 3x3 matrix.

    (I - S)^{-1}(I + S) with S = [[0,-a,-b],[a,0,-c],[b,c,0]] is orthogonal
    with determinant one for any rational a, b, c; acts trivially on e4.
    """
    a, b, c = frac(a), frac(b), frac(c)
    s = ((0, -a, -b), (a, 0, -c), (b, c, 0))
    # I - S is invertible (det 1 + a^2 + b^2 + c^2), so row reduction of the
    # augmented block [I - S | I + S] ends in [I | R]
    reduced, _ = rref([[IDENTITY4[i][j] - s[i][j] for j in range(3)]
                       + [IDENTITY4[i][j] + s[i][j] for j in range(3)] for i in range(3)])
    rows = [list(row[3:]) + [0] for row in reduced] + [[0, 0, 0, 1]]
    return Isometry(mat(rows), ZERO4)


def numeric_boost_34(t: float) -> NumericIsometry:
    """Float boost exp(t * Ya): cosh/sinh in the (3,4) block."""
    v = np.eye(4)
    v[2, 2] = v[3, 3] = math.cosh(t)
    v[2, 3] = v[3, 2] = math.sinh(t)
    return NumericIsometry(v, np.zeros(4))

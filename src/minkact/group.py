"""The isometry group O(3,1) x R^{3,1} (semidirect): composition, inversion,
the affine action on points, and exponentials of algebra elements.

Isometries are exact, over Fractions, everywhere the classification logic
touches them.  Exponentials exp(tX) come from one closed form driven by the
two Lorentz invariants tr(X^2) and Pf(eta X): exact for nilpotent X and an
exact t, numpy floats otherwise (boosts, rotations by generic angles,
properness sequences, orbit patches).  Exact rational rotations and boosts
are available through half-angle/half-velocity parameterizations for tests
and recovery trials that must stay in the rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
from .subalgebra import lorentz_invariants


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


def compose(g: Isometry, h: Isometry) -> Isometry:
    """(V,v)(U,u) = (VU, v + V u)."""
    return Isometry(matmul(g.V, h.V), vadd(g.v, matvec(g.V, h.v)))


def invert(g: Isometry) -> Isometry:
    """(V,v)^{-1} = (V^{-1}, -V^{-1} v) with V^{-1} = eta V^t eta."""
    vinv = lorentz_inverse(g.V)
    return Isometry(vinv, vneg(matvec(vinv, g.v)))


def act(g: Isometry, p):
    """Affine action: p -> V p + v."""
    return vadd(matvec(g.V, p), g.v)


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


def _phis(z):
    """(phi_1, ..., phi_4) at z, where phi_k(z) = sum_{j>=0} z^j / (2j + k)!.

    phi_1(u^2) = sinh(u)/u and phi_2(u^2) = (cosh u - 1)/u^2; z < 0 gives sin
    and cos.  Near zero the closed forms cancel, so phi_3, phi_4 are summed.
    """
    if abs(z) < 1:
        phi3, phi4 = (sum(z ** j / math.factorial(2 * j + k) for j in range(10))
                      for k in (3, 4))
        return 1 + z * phi3, 1 / 2 + z * phi4, phi3, phi4
    r = math.sqrt(abs(z))
    phi0, phi1 = (math.cosh(r), math.sinh(r) / r) if z > 0 else (math.cos(r), math.sin(r) / r)
    phi2 = (phi0 - 1) / z
    return phi1, phi2, (phi1 - 1) / z, (phi2 - 1 / 2) / z


def exp_coefficients(trace_sq, pfaffian, t):
    """(c1, ..., c4) with exp(tM) = I + c1 M + ... + c4 M^4, M the 5x5 embedding.

    M has eigenvalues 0, +-alpha and +-i beta, where alpha^2 - beta^2 =
    tr(X^2)/2 and alpha^2 beta^2 = Pf(eta X)^2; interpolating exp at them
    makes c_k t^k times a weighted mean of phi_k at (alpha t)^2 and
    -(beta t)^2.  Nilpotent X (both invariants zero) has X^3 = 0, so M^4 = 0
    and t, t^2/2, t^3/6 are exact for an exact t; otherwise floats.
    """
    if trace_sq == 0 and pfaffian == 0:
        return t, t * t / 2, t * t * t / 6, 0
    t, h, pf = float(t), float(trace_sq) / 4, float(pfaffian)
    larger = abs(h) + math.hypot(h, pf)  # the smaller root is pf^2 / larger
    a2, b2 = (larger, pf * pf / larger) if h > 0 else (pf * pf / larger, larger)
    pa, pb = _phis(a2 * t * t), _phis(-b2 * t * t)
    c1, c2 = (t ** k * (b2 * pa[k - 1] + a2 * pb[k - 1]) / (a2 + b2) for k in (1, 2))
    c3, c4 = (t ** k * (a2 * pa[k - 1] + b2 * pb[k - 1]) / (a2 + b2) for k in (3, 4))
    return c1, c2, c3, c4


def exp_element_exact(a: AlgebraElement, t) -> Isometry:
    """Exact exponential of t*a; only defined when the linear part is
    nilpotent (null rotations, pure translations)."""
    trace_sq, pfaffian = lorentz_invariants(a.linear)
    if trace_sq != 0 or pfaffian != 0:
        raise ValueError("exponential series does not terminate; use the numeric variant")
    c1, c2, c3, _ = exp_coefficients(trace_sq, pfaffian, frac(t))
    m = embed5(a)
    m2 = matmul(m, m)
    m3 = matmul(m2, m)
    total = [[int(i == j) + c1 * m[i][j] + c2 * m2[i][j] + c3 * m3[i][j]
              for j in range(5)] for i in range(4)]
    return Isometry(tuple(tuple(row[:4]) for row in total),
                    tuple(row[4] for row in total))


def exp_element_numeric(a: AlgebraElement, t: float) -> NumericIsometry:
    """Float exponential of t*a from the closed form of :func:`exp_coefficients`."""
    c1, c2, c3, c4 = exp_coefficients(*lorentz_invariants(a.linear), float(t))
    m = np.zeros((5, 5))
    m[:4, :4] = a.linear
    m[:4, 4] = a.trans
    m2 = m @ m
    e = np.eye(5) + c1 * m + c2 * m2 + (c3 * m + c4 * m2) @ m2
    return NumericIsometry(e[:4, :4].copy(), e[:4, 4].copy())


def exp_element(a: AlgebraElement, t):
    """Exponential of t*a: exact when the series terminates, numeric otherwise.

    A float t always selects the numeric variant; exact scalars stay exact
    whenever the linear part is nilpotent and fall back to floats if not.
    """
    if isinstance(t, float) or lorentz_invariants(a.linear) != (0, 0):
        return exp_element_numeric(a, float(t))
    return exp_element_exact(a, t)


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

"""The isometry group O(3,1) x R^{3,1} (semidirect): composition, the affine
action on points, and exponentials of algebra elements.

Isometries are exact, over Fractions, everywhere the classification logic
touches them.  Exponentials exp(tX) come from one closed form on the 4x4
blocks driven by the two Lorentz invariants tr(X^2) and Pf(eta X), one map per
algebra element evaluated per t: exact for nilpotent X and an exact t, plain
Python floats otherwise (boosts, rotations by generic angles, properness
sequences, orbit patches).  Float isometries are the same type, so
composition and the action serve both.  Exact rational rotations and boosts
come from half-angle/half-velocity parameterizations and from the Cayley
transform of a compact linear part about a point, which the properness
recovery map and its trials use to stay in the rationals.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import repeat
from operator import add, mul
from typing import NamedTuple

from .algebra import AlgebraElement
from .linalg import (
    ETA,
    IDENTITY4,
    ZERO4,
    frac,
    mat,
    mat_is_zero,
    matmul,
    matvec,
    rref,
    transpose,
    vadd,
    vsub,
)
from .subalgebra import lorentz_invariants


class Isometry(NamedTuple):
    """Isometry (V, v): Lorentz matrix plus translation, of Fractions or floats."""

    V: tuple
    v: tuple


def lorentz_ok(V) -> bool:
    """Exact check of V^t.eta.V = eta."""
    return matmul(transpose(V), matmul(ETA, V)) == ETA


def compose(g, h):
    """(V,v)(U,u) = (VU, v + V u), in floats when either factor is."""
    return Isometry(matmul(g.V, h.V), vadd(g.v, matvec(g.V, h.v)))


def act(g, p):
    """Affine action: p -> V p + v."""
    return vadd(matvec(g.V, p), g.v)


def translation(p) -> Isometry:
    return Isometry(IDENTITY4, tuple(frac(x) for x in p))


# ---------------------------------------------------------------------------
# Exponentials
# ---------------------------------------------------------------------------


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
    """(c1, ..., c4) with exp(tM) = I + c1 M + ... + c4 M^4, M = [[X, x], [0, 0]].

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


_FLOAT_IDENTITY = tuple(tuple(map(float, row)) for row in IDENTITY4)


def exp_map(a: AlgebraElement):
    """t -> exp(t a), with all that does not depend on t computed once: the
    invariants, exact and then rounded once, and, in floats or (nilpotent X,
    exact t) in Fractions, the powers X, X^2, X^3 of M = [[X, x], [0, 0]]
    (they stop at the first that vanishes) with their images of x.
    X^4 = (tr(X^2)/2) X^2 + Pf(eta X)^2 I (Cayley-Hamilton on so(3,1)) folds
    c4 X^4 into I and X^2, so each t costs one :func:`exp_coefficients` and
    one linear combination, the identity entering as a diagonal coefficient."""
    trace_sq, pfaffian = lorentz_invariants(a.linear)
    nilpotent = trace_sq == 0 and pfaffian == 0

    def blocks(one, x, p, tr, pf):
        powers = [] if mat_is_zero(x) else [x, matmul(x, x)]
        if tr or pf:
            powers.append(matmul(x, powers[1]))
        images = tuple(zip(p, *(matvec(m, p) for m in powers)))

        def at(t):
            c1, c2, c3, c4 = coefficients = exp_coefficients(tr, pf, t)
            c0, *linear = (1 + c4 * pf * pf, c1, c2 + c4 * tr / 2, c3)
            # each entry sums from the identity's, c0 on the diagonal, then over X, X^2, X^3
            acc = [row[:i] + (c0,) + row[i + 1:] for i, row in enumerate(one)]
            for c, m in zip(linear, powers):
                acc = [tuple(map(add, ra, map(mul, repeat(c), rm))) for ra, rm in zip(acc, m)]
            return Isometry(tuple(acc), tuple(sum(map(mul, coefficients, e)) for e in images))
        return at

    # each half is built at its first t; n / d converts faster than float(Fraction)
    floats = cache(lambda: blocks(
        _FLOAT_IDENTITY,
        tuple(tuple(e.numerator / e.denominator for e in row) for row in a.linear),
        tuple(e.numerator / e.denominator for e in a.trans), float(trace_sq), float(pfaffian)))
    fractions = cache(lambda: blocks(IDENTITY4, a.linear, a.trans, trace_sq, pfaffian))
    return lambda t: (fractions()(frac(t)) if nilpotent and not isinstance(t, float)
                      else floats()(float(t)))


def exp_element_exact(a: AlgebraElement, t) -> Isometry:
    """Exact exp(t a); only for a nilpotent linear part (null rotations, translations)."""
    if any(lorentz_invariants(a.linear)):
        raise ValueError("exponential series does not terminate; use the numeric variant")
    return exp_map(a)(frac(t))


def exp_element_numeric(a: AlgebraElement, t: float) -> Isometry:
    """Float exp(t a) from the closed form of :func:`exp_coefficients`."""
    return exp_map(a)(float(t))


def exp_element(a: AlgebraElement, t):
    """exp(t a): exact when the series terminates and t is exact, else floats."""
    return exp_map(a)(t)


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


def cayley(a, point=ZERO4) -> Isometry:
    """Exact Cayley transform of an eta-skew 4x4 linear part A about a point p.

    V = (I - A)^{-1}(I + A) satisfies V^t eta V = eta whenever I - A is
    invertible, as it is for every A of a compact group (its eigenvalues are
    imaginary); the isometry is q -> p + V(q - p).  Row reduction of the
    augmented block [I - A | I + A] ends in [I | V].
    """
    reduced, pivots = rref([[IDENTITY4[i][j] - a[i][j] for j in range(4)]
                            + [IDENTITY4[i][j] + a[i][j] for j in range(4)] for i in range(4)],
                           pivot_limit=4)
    if len(pivots) < 4:
        raise ValueError("I - A is singular; the Cayley transform is undefined")
    v = tuple(row[4:] for row in reduced)
    return Isometry(v, vsub(point, matvec(v, point)))


def cayley_so3(a, b, c) -> Isometry:
    """Exact rotation fixing e4: the Cayley transform of the skew 3x3 matrix
    S = [[0,-a,-b],[a,0,-c],[b,c,0]], orthogonal with determinant one for any
    rational a, b, c."""
    a, b, c = frac(a), frac(b), frac(c)
    return cayley(mat([[0, -a, -b, 0], [a, 0, -c, 0], [b, c, 0, 0], [0, 0, 0, 0]]))

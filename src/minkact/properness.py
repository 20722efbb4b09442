"""Properness analysis for closed isometry groups of Minkowski space.

Both sides of the dichotomy carry an exact certificate:

* non-proper: a noncompact one-parameter subgroup fixing the origin, read
  off one kernel (:func:`fixed_point_nonproper_certificate`), or an explicit
  escaping sequence g_n with bounded x_n and g_n . x_n checked numerically
  to diverge in norm while the images stay Cauchy;
* proper: clock homomorphisms (:func:`clock_certificate`), linear functions
  that every group element shifts by a constant, whose common kernel is a
  translation group or a compact group with a fixed point.  No sampling.

The constructive parameter-recovery maps (``recover_*``) rebuild a group
element from a point and its image for each proper family;
:func:`parameter_recovery_check` exercises them over seeded random trials.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .group import (
    Isometry,
    act,
    cayley_so3,
    exp_element,
    numeric_boost_34,
    rational_rotation_12,
    translation,
)
from .linalg import (frac, integral, kernel_of, mat_is_zero, matmul, quadratic_form, solve_linear,
                     span_contains, sylvester_signature, transpose, vec4)
from .subalgebra import OneParamType, Subalgebra, invariant_forms, type_from_invariants


class WitnessFailedError(AssertionError):
    """The escaping-sequence witness did not behave as required."""


class RecoveryMismatchError(AssertionError):
    """Parameter recovery produced an element that does not carry X to Y."""


# ---------------------------------------------------------------------------
# Fixed-point certificates (non-properness, exact)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixedPointCert:
    """A hyperbolic or parabolic one-parameter subgroup fixing ``point``.

    ``coefficients`` is a primitive integer vector on the basis, and
    ``point`` is the origin, where the kernel of the translation parts puts
    it.  Such a subgroup is closed and noncompact, and its orbit map at the
    fixed point is constant, so the action cannot be proper.
    """

    coefficients: tuple
    kind: OneParamType
    point: tuple


def combination(coeffs, basis):
    """sum_i c_i basis_i, for coefficients that are not all zero."""
    return functools.reduce(operator.add, (b.scaled(c) for c, b in zip(coeffs, basis) if c))


def fixed_point_nonproper_certificate(h: Subalgebra):
    """A hyperbolic or parabolic element of h fixing the origin, or None.

    The elements fixing the origin are the combinations c with
    sum_b c_b x_b = 0: one kernel of the 4 x k matrix of translation parts.
    Each kernel vector, scaled to a primitive integer vector, is typed by
    :func:`~minkact.subalgebra.type_from_invariants`, with tr(X^2) = c^T T c
    and 2 Pf(eta X) = c^T P c read off the invariant forms of the basis's
    linear parts.  The first hyperbolic or parabolic one is returned.

    Scope: every catalog build is in translation normal form, and its
    stabilizers sit at the origin.  Fixed points elsewhere are not looked
    for: the screw family's, on sigma^2 + mu sigma - lambda^2 = 0 with
    sigma = p3 + p4, and those of Lorentz conjugates of catalog records.
    """
    trace_form, pf_form = invariant_forms([b.linear for b in h.basis])
    for c in kernel_of(transpose([b.trans for b in h.basis])):
        (row,), _ = integral([c])
        g = math.gcd(*row)
        coeffs = tuple(x // g for x in row)
        kind = type_from_invariants(quadratic_form(trace_form, coeffs),
                                    quadratic_form(pf_form, coeffs),
                                    combination(coeffs, h.basis).linear)
        if kind in (OneParamType.HYPERBOLIC, OneParamType.PARABOLIC):
            return FixedPointCert(coefficients=coeffs, kind=kind, point=vec4(0, 0, 0, 0))
    return None


def compact_rotation_certificate(h: Subalgebra) -> bool:
    """True when the clock certificate's kernel is all of h and compact: the
    group fixes a point, is conjugate to rotations, and acts properly."""
    cert = clock_certificate(h)
    return cert is not None and cert.kind == "compact" and len(cert.kernel) == h.dim


# ---------------------------------------------------------------------------
# Clock certificates (properness, exact)
# ---------------------------------------------------------------------------


def _linear_form(cov):
    """The covector cov as a linear form in p1..p4, e.g. 'p3+p4' or '2*p1-p2'."""
    terms = (("+" if c > 0 else "-") + ("" if abs(c) == 1 else f"{abs(c)}*") + f"p{k + 1}"
             for k, c in enumerate(cov) if c)
    return "".join(terms).lstrip("+")


@dataclass(frozen=True)
class ClockCertificate:
    """Clocks (covector, rates) with rates[b] = c . x_b, the basis of their
    kernel ideal, its kind ('translations' or 'compact') and, when compact,
    a point the kernel fixes."""

    clocks: tuple
    kernel: tuple
    kind: str
    point: tuple | None

    def describe(self) -> str:
        clocks = ", ".join(f"clock {_linear_form(c)} rates ({','.join(map(str, r))})"
                           for c, r in self.clocks) or "no clock"
        fixing = f", fixing ({','.join(map(str, self.point))})" if self.point is not None else ""
        return f"{clocks}, kernel of dim {len(self.kernel)}: {self.kind}{fixing}"


def clock_certificate(h: Subalgebra):
    """Prove that H = exp(h) acts properly, or return None.

    A clock is a covector c with c X_b = 0 for every basis element
    b = (X_b, x_b), found by one kernel of the stacked transposed linear
    parts; along b, l(p) = c . p has the constant Lie derivative c . x_b, its
    rate.  The kernel ideal k is the null space of the rate matrix (all of h
    without clocks).  The certificate holds when k is pure translations, or
    compact (negative-definite trace form, zero Pfaffian form on its linear
    parts) with a common fixed point, X p = -x stacked over k.

    Proof.  c V = c for each linear part V in H, so l(g.x) - l(x) = c . v for
    g = (V, v), whatever x: the clocks give a homomorphism phi: H -> R^r.
    H/K is its image, a subspace R^s, so K = ker phi is connected, with Lie
    algebra k, and acts properly (translations, or compact).  If x_n -> x
    and g_n . x_n -> y, phi(g_n) = l(g_n . x_n) - l(x_n) is bounded; on a
    subsequence it tends to a.  A continuous section s of phi (products of
    exp(t_j Z_j)) gives k_n = s(phi(g_n))^-1 g_n in K with
    k_n . x_n -> s(a)^-1 . y, so (k_n), hence (g_n), subconverges.
    """
    covectors = kernel_of([col for b in h.basis for col in transpose(b.linear)])
    rates = [tuple(sum(c * t for c, t in zip(cov, b.trans)) for b in h.basis)
             for cov in covectors]
    # a zero row keeps the whole algebra when there is no clock
    kernel = tuple(combination(a, h.basis) for a in kernel_of(rates or [[0] * h.dim]))
    clocks = tuple(zip(covectors, rates))
    linears = [z.linear for z in kernel]
    if all(mat_is_zero(x) for x in linears):
        return ClockCertificate(clocks, kernel, "translations", None)
    trace_form, pf_form = invariant_forms(linears)
    if sylvester_signature(trace_form)[1] != len(kernel) or any(map(any, pf_form)):
        return None
    point = solve_linear([row for x in linears for row in x],
                         [-t for z in kernel for t in z.trans]).particular
    return None if point is None else ClockCertificate(clocks, kernel, "compact", point)


# ---------------------------------------------------------------------------
# Escaping-sequence witnesses (non-properness, checked numerically)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessSequence:
    """Sequence n -> (g_n, x_n) meant to violate properness.

    ``group_at(n)`` returns (V, v) as float arrays; ``point_at(n)`` a float
     4-vector.  The defining property: x_n converges, g_n . x_n converges,
    but |g_n| diverges, so {g in G : g K meets K} is noncompact for a
    compact K containing both limits.
    """

    description: str
    group_at: object
    point_at: object


def fixed_point_witness(elt, point, kind: OneParamType) -> WitnessSequence:
    """Witness through a fixed point: g_n = exp(t_n X), x_n = the point.

    Hyperbolic subgroups grow like e^t, so t_n = log(1+n) keeps cosh within
    float range while the norms still diverge linearly; parabolic subgroups
    grow polynomially and take t_n = n directly.
    """
    pt = np.array([float(x) for x in point])
    hyperbolic = kind is OneParamType.HYPERBOLIC

    def group_at(n):
        t = math.log(1.0 + n) if hyperbolic else float(n)
        g = exp_element(elt, t)
        return g.V, g.v

    def point_at(n):
        return pt

    label = "hyperbolic" if hyperbolic else "parabolic"
    return WitnessSequence(
        description=f"{label} one-parameter subgroup fixing {tuple(point)}",
        group_at=group_at,
        point_at=point_at,
    )


def nilpotent_pair_witness(lam, mu) -> WitnessSequence:
    """Escaping sequence for the fixed-point-free screw family.

    The group elements are built from the two-parameter null-rotation block
    C(t, s) together with the translations the decorated generators force;
    along t_n = (alpha+mu) n, s_n = -lam n (alpha the positive root of
    x^2 + mu x - lam^2) the chosen base point x = (0, 0, alpha, 0) satisfies
    g_n . x = x identically, while |g_n| grows quadratically.
    """
    lam = float(lam)
    mu = float(mu)
    alpha = (-mu + math.sqrt(mu * mu + 4.0 * lam * lam)) / 2.0
    x = np.array([0.0, 0.0, alpha, 0.0])

    def group_at(n):
        t = (alpha + mu) * n
        s = -lam * n
        q = (t * t + s * s) / 2.0
        V = np.array([
            [1.0, 0.0, t, t],
            [0.0, 1.0, s, s],
            [-t, -s, 1.0 - q, -q],
            [t, s, q, 1.0 + q],
        ])
        vtx = q * alpha
        v = np.array([lam * s, lam * t + mu * s, vtx, -vtx])
        return V, v

    def point_at(n):
        return x

    return WitnessSequence(
        description=f"screw family lam={lam} mu={mu}: recurrent point ({0}, {0}, {alpha:.6g}, {0})",
        group_at=group_at,
        point_at=point_at,
    )


@dataclass(frozen=True)
class WitnessReport:
    steps: tuple
    group_norms: tuple
    point_gap: float
    image_gap: float


def check_witness(witness: WitnessSequence, steps: int = 1024,
                  tol: float = 1e-6) -> WitnessReport:
    """Evaluate the witness on a dyadic ladder n = 1, 2, 4, ... <= steps.

    Requires: group norms diverge (final > 10x initial, nondecreasing over
    the last half of the ladder) while both x_n and g_n . x_n are Cauchy at
    tolerance tol over that tail.  Raises WitnessFailedError otherwise.
    """
    ladder = []
    n = 1
    while n <= steps:
        ladder.append(n)
        n *= 2
    if len(ladder) < 4:
        raise WitnessFailedError("need at least 4 dyadic steps")

    norms, points, images = [], [], []
    for n in ladder:
        V, v = witness.group_at(n)
        x = witness.point_at(n)
        norms.append(float(np.linalg.norm(V) + np.linalg.norm(v)))
        points.append(x)
        images.append(V @ x + v)

    if not norms[-1] > 10.0 * norms[0]:
        raise WitnessFailedError(
            f"group norms do not diverge: first {norms[0]:.4g}, last {norms[-1]:.4g}"
        )
    tail = len(ladder) // 2
    for a, b in zip(norms[tail:], norms[tail + 1:]):
        if b < a:
            raise WitnessFailedError("group norms are not eventually monotone")

    point_gap = max(float(np.linalg.norm(points[k + 1] - points[k]))
                    for k in range(tail, len(ladder) - 1))
    image_gap = max(float(np.linalg.norm(images[k + 1] - images[k]))
                    for k in range(tail, len(ladder) - 1))
    if point_gap >= tol:
        raise WitnessFailedError(f"base points are not Cauchy: tail gap {point_gap:.3g}")
    if image_gap >= tol:
        raise WitnessFailedError(f"images are not Cauchy: tail gap {image_gap:.3g}")
    return WitnessReport(steps=tuple(ladder), group_norms=tuple(norms),
                         point_gap=point_gap, image_gap=image_gap)


# ---------------------------------------------------------------------------
# Parameter recovery (properness, constructive)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecoveryReport:
    kind: str
    trials: int


def _sample_fraction(rng, lo=-8, hi=8, den=5):
    return Fraction(rng.randint(lo * den, hi * den), den)


def _sample_point(rng):
    return vec4(*(_sample_fraction(rng) for _ in range(4)))


def _reflection3(u):
    """3x3 Householder reflection across the plane orthogonal to u (exact)."""
    uu = sum(c * c for c in u)
    return tuple(tuple(Fraction(i == j) - 2 * u[i] * u[j] / uu for j in range(3))
                 for i in range(3))


def rotation_between(x3, y3):
    """Exact rational rotation V in SO(3) with V x3 = y3, given |x3|^2 = |y3|^2.

    Built as a product of at most two reflections: one exchanging x and y,
    one restoring the determinant while fixing y.
    """
    x3 = tuple(frac(c) for c in x3)
    y3 = tuple(frac(c) for c in y3)
    if sum(c * c for c in x3) != sum(c * c for c in y3):
        raise ValueError("spatial norms differ; no rotation exists")
    identity = tuple(tuple(Fraction(i == j) for j in range(3)) for i in range(3))
    if x3 == y3:
        return identity
    u = tuple(a - b for a, b in zip(x3, y3))
    first = _reflection3(u)  # maps x3 to y3, determinant -1
    if y3[0] == 0 and y3[1] == 0 and y3[2] == 0:
        raise ValueError("cannot fix the origin with a reflection")
    w = (-y3[1], y3[0], Fraction(0)) if (y3[0] != 0 or y3[1] != 0) else (Fraction(1), Fraction(0), Fraction(0))
    return matmul(_reflection3(w), first)


def _embed3(v3):
    """The 4x4 isometry acting as v3 on space and fixing time."""
    zero = Fraction(0)
    return tuple((*row, zero) for row in v3) + ((zero, zero, zero, Fraction(1)),)


def recover_translation(x, y, span):
    """Recover a pure translation carrying x to y; its vector must lie in span."""
    v = tuple(b - a for a, b in zip(x, y))
    if span_contains(list(span), v) is None:
        raise RecoveryMismatchError(f"displacement {v} escapes the translation span")
    return translation(v)


def recover_rotation_translation(x, y):
    """Recover (R, w): planar rotation in the (1,2) coordinates plus a
    translation along the last two axes.  Exact via the half-angle tangent."""
    x1, x2 = x[0], x[1]
    y1, y2 = y[0], y[1]
    r2 = x1 * x1 + x2 * x2
    if r2 != y1 * y1 + y2 * y2:
        raise RecoveryMismatchError("rotation radius mismatch")
    if r2 == 0:
        return translation((Fraction(0), Fraction(0), y[2] - x[2], y[3] - x[3]))
    denom = r2 + x1 * y1 + x2 * y2
    if denom == 0:
        raise RecoveryMismatchError("half-turn is outside the rational chart")
    tau = (x1 * y2 - x2 * y1) / denom
    rot = rational_rotation_12(tau)
    rx = act(Isometry(rot.V, rot.v), x)
    w = tuple(b - a for a, b in zip(rx, y))
    if w[0] != 0 or w[1] != 0:
        raise RecoveryMismatchError("residual translation leaves the (3,4) plane")
    return Isometry(rot.V, vec4(0, 0, w[2], w[3]))


def recover_spatial_rotation(x, y, allow_e4=True):
    """Recover (V, u e4) with V a rational SO(3) rotation: spatial parts are
    matched by a two-reflection rotation, the time gap rides on e4."""
    if not allow_e4 and x[3] != y[3]:
        raise RecoveryMismatchError("time coordinates differ for a pure rotation")
    v3 = rotation_between(x[:3], y[:3])
    big = _embed3(v3)
    u = y[3] - x[3] if allow_e4 else Fraction(0)
    return Isometry(big, vec4(0, 0, 0, u))


def recover_boost_family(x, y, lam, tol=1e-9):
    """Recover (t, s, w) for the boost-with-drift family; numeric in t.

    Group elements: boost by t in the (3,4) plane, translation
    (lam t, s, w, -w).  The first coordinate moves only by the drift, so t
    reads off exactly; the remaining components are checked at tol.
    """
    lam = float(lam)
    xf = [float(c) for c in x]
    yf = [float(c) for c in y]
    t = (yf[0] - xf[0]) / lam
    s = yf[1] - xf[1]
    ch, sh = math.cosh(t), math.sinh(t)
    w = yf[2] - ch * xf[2] - sh * xf[3]
    y4 = sh * xf[2] + ch * xf[3] - w
    if abs(y4 - yf[3]) > tol:
        raise RecoveryMismatchError(
            f"boost recovery residual {abs(y4 - yf[3]):.3g} exceeds {tol}"
        )
    return t, s, w, boost_family_element_numeric(t, s, w, lam)


def recover_null_family(x, y, mu):
    """Recover (t, s, w) for the null-rotation-with-drift family, exactly.

    Group elements: N_t = exp of t times the null rotation, translation
    (mu t^2/2, s, w, mu t - w).  The lightlike level p3+p4 moves by mu t,
    so t is rational whenever the data are.
    """
    mu = frac(mu)
    t = ((y[2] + y[3]) - (x[2] + x[3])) / mu
    s = y[1] - x[1]
    # (N_t x)_3 = x3 - t x1 - (t^2/2)(x3 + x4)
    w = y[2] - (x[2] - t * x[0] - t * t * (x[2] + x[3]) / 2)
    return t, s, w


def null_family_element(t, s, w, mu):
    """The exact group element of the null family with parameters (t, s, w)."""
    t, s, w, mu = frac(t), frac(s), frac(w), frac(mu)
    one, zero = Fraction(1), Fraction(0)
    half_t2 = t * t / 2
    V = (
        (one, zero, t, t),
        (zero, one, zero, zero),
        (-t, zero, one - half_t2, -half_t2),
        (t, zero, half_t2, one + half_t2),
    )
    v = vec4(mu * t * t / 2, s, w, mu * t - w)
    return Isometry(V, v)


def boost_family_element_numeric(t, s, w, lam):
    t, s, w, lam = float(t), float(s), float(w), float(lam)
    return numeric_boost_34(t).V, np.array([lam * t, s, w, -w])


def parameter_recovery_check(kind, params, trials: int = 100, seed: int = 777) -> RecoveryReport:
    """Run randomized recovery trials for one proper family.

    kind is one of 'translation', 'so2', 'so3', 'rotation-only', 'boost',
    'null'; params carries what that family needs (translation span, or the
    drift coefficient).  Every trial builds a group element, pushes a random
    point through it, recovers an element from the endpoint pair alone, and
    demands the recovered element reproduce the endpoint (exactly, except for
    the boost family which is checked at 1e-9).
    """
    rng = random.Random(seed)
    for trial in range(trials):
        x = _sample_point(rng)
        if kind == "translation":
            span = params["span"]
            coeffs = [_sample_fraction(rng) for _ in span]
            v = vec4(0, 0, 0, 0)
            for c, s_vec in zip(coeffs, span):
                v = tuple(a + c * b for a, b in zip(v, s_vec))
            g = translation(v)
            y = act(g, x)
            got = recover_translation(x, y, span)
            if act(got, x) != y:
                raise RecoveryMismatchError(f"trial {trial}: translation endpoint mismatch")
        elif kind == "so2":
            if x[0] == 0 and x[1] == 0:
                x = vec4(x[0] + 1, x[1], x[2], x[3])
            tau = _sample_fraction(rng, -3, 3, 7)
            rot = rational_rotation_12(tau)
            g = Isometry(rot.V, vec4(0, 0, _sample_fraction(rng), _sample_fraction(rng)))
            y = act(g, x)
            got = recover_rotation_translation(x, y)
            if act(got, x) != y:
                raise RecoveryMismatchError(f"trial {trial}: rotation endpoint mismatch")
        elif kind in ("so3", "rotation-only"):
            a, b, c = (_sample_fraction(rng, -3, 3, 4) for _ in range(3))
            rot = cayley_so3(a, b, c)
            u = _sample_fraction(rng) if kind == "so3" else Fraction(0)
            g = Isometry(rot.V, vec4(0, 0, 0, u))
            y = act(g, x)
            got = recover_spatial_rotation(x, y, allow_e4=(kind == "so3"))
            if act(got, x) != y:
                raise RecoveryMismatchError(f"trial {trial}: spatial rotation endpoint mismatch")
        elif kind == "boost":
            lam = params["lam"]
            t = rng.uniform(-2.0, 2.0)
            s = rng.uniform(-5.0, 5.0)
            w = rng.uniform(-5.0, 5.0)
            V, v = boost_family_element_numeric(t, s, w, lam)
            xf = np.array([float(c) for c in x])
            y = V @ xf + v
            t2, s2, w2, (V2, v2) = recover_boost_family(xf, y, lam)
            y2 = V2 @ xf + v2
            if float(np.linalg.norm(y2 - y)) > 1e-9:
                raise RecoveryMismatchError(f"trial {trial}: boost endpoint mismatch")
        elif kind == "null":
            mu = params["mu"]
            t = _sample_fraction(rng, -3, 3, 7)
            s = _sample_fraction(rng)
            w = _sample_fraction(rng)
            g = null_family_element(t, s, w, mu)
            y = act(g, x)
            t2, s2, w2 = recover_null_family(x, y, mu)
            g2 = null_family_element(t2, s2, w2, mu)
            if act(g2, x) != y:
                raise RecoveryMismatchError(f"trial {trial}: null-family endpoint mismatch")
            if (t2, s2, w2) != (t, s, w):
                raise RecoveryMismatchError(f"trial {trial}: null-family parameters drift")
        else:
            raise ValueError(f"unknown recovery kind: {kind}")
    return RecoveryReport(kind=kind, trials=trials)

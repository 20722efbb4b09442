"""Properness analysis for closed isometry groups of Minkowski space.

Both sides of the dichotomy carry an exact certificate:

* non-proper: a noncompact one-parameter subgroup fixing the origin, read
  off one kernel (:func:`fixed_point_nonproper_certificate`), or an explicit
  escaping sequence g_n with bounded x_n and g_n . x_n checked numerically
  to diverge in norm while the images stay Cauchy;
* proper: clock homomorphisms (:func:`clock_certificate`), linear functions
  that every group element shifts by a constant, whose common kernel is a
  translation group or a compact group with a fixed point.  No sampling.

The clock certificate is also constructive: :func:`recover_element` reads
the group element carrying a point to its image off the clocks, a section
and one kernel solve, and :func:`parameter_recovery_check` exercises it over
seeded random trials.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import element
from .group import (Isometry, NumericIsometry, act, cayley, compose, exp_element, to_numeric,
                    translation)
from .linalg import (echelon_basis, integral, kernel_of, mat_is_zero, matvec, quadratic_form,
                     reduce_mod, solve_linear, sylvester_signature, transpose, vadd, vec4, vsub)
from .subalgebra import (OneParamType, Subalgebra, invariant_forms, require_closed,
                         type_from_invariants)


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
    """sum_i c_i basis_i; the zero element when every coefficient is zero."""
    terms = [b.scaled(c) for c, b in zip(coeffs, basis) if c]
    return functools.reduce(operator.add, terms) if terms else element()


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
    """For the basis x_b of h: clocks (covector, rates) with
    rates[b] = c . x_b, the basis of their kernel ideal, its kind
    ('translations' or 'compact') and, when compact, a point the kernel
    fixes."""

    basis: tuple
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
        return ClockCertificate(h.basis, clocks, kernel, "translations", None)
    trace_form, pf_form = invariant_forms(linears)
    if sylvester_signature(trace_form)[1] != len(kernel) or any(map(any, pf_form)):
        return None
    point = solve_linear([row for x in linears for row in x],
                         [-t for z in kernel for t in z.trans]).particular
    return None if point is None else ClockCertificate(h.basis, clocks, kernel, "compact", point)


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


RECOVERY_TOL = 1e-9  # endpoint tolerance when the section is a float exponential


def _sample_fraction(rng, lo=-8, hi=8, den=5):
    return Fraction(rng.randint(lo * den, hi * den), den)


def _sample_point(rng):
    return vec4(*(_sample_fraction(rng) for _ in range(4)))


def _image(g, x):
    """g . x as Fractions, for an exact or a float isometry; a float image
    converts exactly, so the solves downstream stay in the rationals."""
    if isinstance(g, Isometry):
        return act(g, x)
    return tuple(map(Fraction, g.V @ np.array([float(c) for c in x]) + g.v))


def _section(cert: ClockCertificate, phi):
    """exp(Z) for the Z in h with clock rates phi, or None if phi is no rates'
    value: the particular solution of one solve on the rate matrix, linear in
    phi, hence a continuous section of the clock homomorphism."""
    rates = [r for _, r in cert.clocks] or [[0] * len(cert.basis)]
    a = solve_linear(rates, list(phi) or [0]).particular
    return None if a is None else exp_element(combination(a, cert.basis), 1)


def _kernel_element(cert: ClockCertificate, beta):
    """The kernel element with coordinates beta: a translation, or the Cayley
    transform of the combined linear part about the fixed point."""
    z = combination(beta, cert.kernel)
    return translation(z.trans) if cert.kind == "translations" else cayley(z.linear, cert.point)


def recover_element(cert: ClockCertificate, x, y):
    """The group element g = k o s with g . x = y, from the pair (x, y) alone.

    The clocks read phi(g) = l(y) - l(x) off the pair, and the section s has
    phi(s) = phi, so k = g s^-1 lies in the kernel K and carries s . x to y.
    For translations, k is the displacement y - s . x less its remainder
    modulo K's span, which the endpoint check demands be zero.  For a
    compact K fixing p, with u = s . x - p and v = y - p, one solve gives A
    in K's linear parts with A(u + v) = v - u, and its Cayley transform
    about p carries u to v.  Exact when Z is nilpotent, otherwise float and
    checked at RECOVERY_TOL.  Raises RecoveryMismatchError when no element
    of H carries x to y: y off the orbit, unequal norms under rotations, or
    a half-turn.
    """
    x, y = tuple(map(Fraction, x)), tuple(map(Fraction, y))
    phi = [sum(c * (b - a) for c, a, b in zip(cov, x, y)) for cov, _ in cert.clocks]
    s = _section(cert, phi)
    if s is None:
        raise RecoveryMismatchError(f"clock readings {phi} are the rates of no element of h")
    sx = _image(s, x)
    if cert.kind == "translations":
        d = vsub(y, sx)
        k = translation(vsub(d, reduce_mod(echelon_basis([z.trans for z in cert.kernel]), d)))
    else:
        u, v = vsub(sx, cert.point), vsub(y, cert.point)
        w = vadd(u, v)
        beta = solve_linear(transpose([matvec(z.linear, w) for z in cert.kernel]),
                            vsub(v, u)).particular
        if beta is None:
            raise RecoveryMismatchError("no kernel rotation carries s.x to y")
        k = _kernel_element(cert, beta)
    if isinstance(s, Isometry):
        g = compose(k, s)
    else:
        kn = to_numeric(k)
        g = NumericIsometry(kn.V @ s.V, kn.v + kn.V @ s.v)
    gap = max(abs(a - b) for a, b in zip(_image(g, x), y))
    if gap > (0 if isinstance(g, Isometry) else RECOVERY_TOL):
        raise RecoveryMismatchError(f"recovered element misses y by {float(gap):.3g}")
    return g


def parameter_recovery_check(kind, params, trials: int = 100, seed: int = 777) -> RecoveryReport:
    """Run seeded recovery trials on one proper group.

    kind must be 'clock', with params {'basis': basis} for a subalgebra h
    with a clock certificate.  Each trial draws g = k o exp(Z), with Z the
    section of the rates of a random rational combination of the basis and
    k a random kernel element, pushes a random point x through g, and
    demands that :func:`recover_element` rebuild from (x, g . x) alone an
    element that reproduces the endpoint: exactly when Z is nilpotent, at
    RECOVERY_TOL otherwise.
    """
    if kind != "clock":
        raise ValueError(f"unknown recovery kind: {kind}")
    cert = clock_certificate(require_closed(params["basis"]))
    if cert is None:
        raise ValueError("the algebra has no clock certificate")
    rng = random.Random(seed)
    for _ in range(trials):
        x = _sample_point(rng)
        # |a| <= 2 keeps a boost section's float endpoint within RECOVERY_TOL
        # for drifts down to 1/1000, where reading the rapidity off the
        # clock divides float error by the drift
        a = [_sample_fraction(rng, -2, 2, 7) for _ in cert.basis]
        s = _section(cert, [sum(r * c for r, c in zip(rates, a)) for _, rates in cert.clocks])
        k = _kernel_element(cert, [_sample_fraction(rng, -3, 3, 4) for _ in cert.kernel])
        recover_element(cert, x, act(k, _image(s, x)))
    return RecoveryReport(kind=kind, trials=trials)

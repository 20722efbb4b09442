"""Properness analysis for closed isometry groups of Minkowski space.

Both sides of the dichotomy carry an exact certificate:

* non-proper: a noncompact one-parameter subgroup fixing a point, read off
  one kernel of the Killing matrix there (:func:`fixed_point_nonproper_certificate`),
  the point rational or in a real quadratic field;
* proper: clock homomorphisms (:func:`clock_certificate`), linear functions
  that every group element shifts by a constant, whose common kernel is a
  translation group or a compact group with a fixed point.  No sampling.

An escaping sequence g_n with bounded x_n and g_n . x_n, checked in plain
Python floats to diverge in norm while the images stay Cauchy, illustrates
a fixed-point certificate (:func:`fixed_point_witness`); no verdict reads it.
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
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple

from .algebra import AlgebraElement, element
from .group import act, cayley, compose, exp_element, exp_map, translation
from .linalg import (ZERO4, echelon_form, kernel_of, mat_is_zero, matvec, reduce_form,
                     solve_linear, sylvester_signature, transpose, vadd, vec4, vsub)
from .orbits import QuadraticPoint, clocks, killing_matrix, point_text
from .subalgebra import (OneParamType, Subalgebra, _pfaffian_polar, _trace_product,
                         invariant_forms, require_closed, type_from_invariants)


class WitnessFailedError(AssertionError):
    """The escaping-sequence witness did not behave as required."""


class RecoveryMismatchError(AssertionError):
    """Parameter recovery produced an element that does not carry X to Y."""


# ---------------------------------------------------------------------------
# Fixed-point certificates (non-properness, exact)
# ---------------------------------------------------------------------------


def _surd_sign(a, b, d):
    """The sign of a + b sqrt(d), exactly: that of its larger term, for a
    rational d >= 0 with sqrt(d) irrational or b = 0."""
    x = a if a * a > b * b * d else b
    return (x > 0) - (x < 0)


def _surd_float(a, b, d):
    """a + b sqrt(d) in floats; where the terms have opposite signs, through
    (a^2 - b^2 d) / (a - b sqrt(d)), which does not cancel (zero when both
    terms are below float range)."""
    if a * b >= 0:
        return float(a) + math.sqrt(d) * float(b)
    far = float(a) - math.sqrt(d) * float(b)
    return float(a * a - b * b * d) / far if far else 0.0


class FixedPointCert(NamedTuple):
    """A hyperbolic or parabolic element sum_b c_b basis_b fixing ``point``,
    with c = ``coefficients`` + sqrt(d) ``surd`` (empty at a rational point)
    primitive over both integer halves.  Such a subgroup is closed and
    noncompact, and its orbit map at the fixed point is constant, so the
    action cannot be proper."""

    coefficients: tuple
    kind: OneParamType
    point: tuple | QuadraticPoint
    surd: tuple = ()

    def describe(self) -> str:
        return f"{self.kind.value.lower()} stabilizer at {point_text(self.point)}"

    def linear(self, basis):
        """The element's linear part in floats, from c divided by its largest
        entry, so that no coefficient overflows."""
        top = max(map(abs, (*self.coefficients, *self.surd)))
        x0, x1 = (combination([Fraction(c, top) for c in half], basis).linear
                  for half in (self.coefficients, self.surd))
        d = self.point.d if self.surd else 0
        return tuple(tuple(map(_surd_float, r0, r1, repeat(d))) for r0, r1 in zip(x0, x1))


def combination(coeffs, basis):
    """sum_i c_i basis_i; the zero element when every coefficient is zero."""
    terms = [b.scaled(c) for c, b in zip(coeffs, basis) if c]
    return functools.reduce(operator.add, terms) if terms else element()


def _stabilizer_type(basis, c, d):
    """The type of the element with coefficients c0 + sqrt(d) c1, c listing
    c0 then c1 (empty at a rational point), read off its own linear part
    X = X0 + sqrt(d) X1: tr(X^2) and Pf(eta X) are a + b sqrt(d), with halves
    from the products of X0 and X1."""
    x0, x1 = (combination(half, basis).linear for half in (c[:len(basis)], c[len(basis):]))
    trace_sign = _surd_sign(_trace_product(x0, x0) + d * _trace_product(x1, x1),
                            2 * _trace_product(x0, x1), d)
    pfaffian = (_pfaffian_polar(x0, x0) + d * _pfaffian_polar(x1, x1),
                _pfaffian_polar(x0, x1)) != (0, 0)
    # the rows of both halves: X is zero exactly when they all are
    return type_from_invariants(trace_sign, pfaffian, x0 + x1)


def fixed_point_nonproper_certificate(h: Subalgebra, points=()):
    """A hyperbolic or parabolic element of h fixing a point, or None.

    The candidates are the origin, ``points`` (rational or
    :class:`~minkact.orbits.QuadraticPoint`), then the point of
    ``h.normal_form``, where a translation conjugate of a catalog build has
    its stabilizers.  The elements fixing p are one kernel, of the rational
    :func:`~minkact.orbits.killing_matrix` at p.  The first kernel vector
    (primitive, as :func:`~minkact.linalg.kernel_of` gives it) that its own
    linear part types hyperbolic or parabolic is returned.
    """
    for p in (ZERO4, *points, None):  # None: the normal-form point, solved for last
        p = h.normal_form[0] if p is None else p
        d = p.d if isinstance(p, QuadraticPoint) else 0
        for c in kernel_of(killing_matrix(h, p)):
            kind = _stabilizer_type(h.basis, c, d)
            if kind in (OneParamType.HYPERBOLIC, OneParamType.PARABOLIC):
                return FixedPointCert(c[:h.dim], kind, p, c[h.dim:])
    return None


# ---------------------------------------------------------------------------
# Clock certificates (properness, exact)
# ---------------------------------------------------------------------------


def _linear_form(cov):
    """The covector cov as a linear form in p1..p4, e.g. 'p3+p4' or '2*p1-p2'."""
    terms = (("+" if c > 0 else "-") + ("" if abs(c) == 1 else f"{abs(c)}*") + f"p{k + 1}"
             for k, c in enumerate(cov) if c)
    return "".join(terms).lstrip("+")


class ClockCertificate(NamedTuple):
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
        fixing = f", fixing {point_text(self.point)}" if self.point is not None else ""
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
    found = tuple(clocks(h))
    # a zero row keeps the whole algebra when there is no clock
    rates = [r for _, r in found] or [[0] * h.dim]
    kernel = tuple(combination(a, h.basis) for a in kernel_of(rates))
    linears = [z.linear for z in kernel]
    if all(mat_is_zero(x) for x in linears):
        return ClockCertificate(h.basis, found, kernel, "translations", None)
    trace_form, pf_form = invariant_forms(linears)
    if sylvester_signature(trace_form)[1] != len(kernel) or any(map(any, pf_form)):
        return None
    point = solve_linear([row for x in linears for row in x],
                         [-t for z in kernel for t in z.trans]).particular
    return None if point is None else ClockCertificate(h.basis, found, kernel, "compact", point)


# ---------------------------------------------------------------------------
# Escaping-sequence witnesses (non-properness, checked numerically)
# ---------------------------------------------------------------------------


class WitnessSequence(NamedTuple):
    """Sequence n -> (g_n, x_n) meant to violate properness.

    ``group_at(n)`` returns (V, v) as float tuples; ``point_at(n)`` a float
    4-tuple.  The defining property: x_n converges, g_n . x_n converges,
    but |g_n| diverges, so {g in G : g K meets K} is noncompact for a
    compact K containing both limits.
    """

    description: str
    group_at: object
    point_at: object


def fixed_point_witness(linear, point, kind: OneParamType) -> WitnessSequence:
    """Witness through a fixed point p: x_n = p and g_n = exp(t_n X) about p,
    that is (V_n, p - V_n p) with V_n = exp(t_n X), for X the linear part of
    an element fixing p, so that floats round the images only once.

    X is scaled to a unit linear part in floats: unit rapidity sqrt(tr(X^2)/2)
    when hyperbolic, largest entry 1 when parabolic (a nilpotent X has no
    invariant scale), so the walk's speed depends neither on how the element
    was normalized nor on the family's parameters.  Hyperbolic subgroups grow
    like e^t, so t_n = log(1+n) keeps cosh within float range while the norms
    still diverge linearly; parabolic subgroups grow polynomially and take
    t_n = n directly.  ``point`` is rational or a
    :class:`~minkact.orbits.QuadraticPoint`.
    """
    hyperbolic = kind is OneParamType.HYPERBOLIC
    x = tuple(tuple(map(float, row)) for row in linear)
    speed = math.sqrt(_trace_product(x, x) / 2) if hyperbolic else max(map(abs, sum(x, ())))
    exp_unit = exp_map(AlgebraElement(tuple(tuple(Fraction(v / speed) for v in row) for row in x),
                                      ZERO4))
    pt = (tuple(map(_surd_float, point.rational, point.surd, repeat(point.d)))
          if isinstance(point, QuadraticPoint) else tuple(map(float, point)))

    def group_at(n):
        V = exp_unit(math.log(1.0 + n) if hyperbolic else float(n)).V
        return V, vsub(pt, matvec(V, pt))

    def point_at(_n):
        return pt

    label = "hyperbolic" if hyperbolic else "parabolic"
    return WitnessSequence(
        description=f"{label} one-parameter subgroup fixing {point_text(point)}",
        group_at=group_at,
        point_at=point_at,
    )


class WitnessReport(NamedTuple):
    steps: tuple
    group_norms: tuple
    point_gap: float
    image_gap: float


def check_witness(witness: WitnessSequence, steps: int = 1024,
                  tol: float = 1e-6) -> WitnessReport:
    """Evaluate the witness on a dyadic ladder n = 1, 2, 4, ... <= steps.

    Requires: group norms diverge (final > 10x initial, nondecreasing over
    the last half of the ladder) while both x_n and g_n . x_n are Cauchy at
    tolerance tol over that tail.  Raises WitnessFailedError otherwise, and
    OverflowError where floats cannot decide: a norm or an image past their
    range, or images so large that rounding alone opens a tail gap of tol.
    """
    ladder = [2 ** k for k in range(steps.bit_length())]
    if len(ladder) < 4:
        raise WitnessFailedError("need at least 4 dyadic steps")

    norms, points, images = [], [], []
    for n in ladder:
        V, v = witness.group_at(n)
        x = witness.point_at(n)
        norms.append(math.hypot(*(c for row in V for c in row)) + math.hypot(*v))
        points.append(x)
        images.append(vadd(matvec(V, x), v))
        if not all(map(math.isfinite, (norms[-1], *images[-1]))):
            raise OverflowError(f"the witness leaves the float range at n = {n}")

    if not norms[-1] > 10.0 * norms[0]:
        raise WitnessFailedError(
            f"group norms do not diverge: first {norms[0]:.4g}, last {norms[-1]:.4g}"
        )
    tail = len(ladder) // 2
    for a, b in zip(norms[tail:], norms[tail + 1:]):
        if b < a:
            raise WitnessFailedError("group norms are not eventually monotone")

    point_gap = max(math.dist(points[k + 1], points[k]) for k in range(tail, len(ladder) - 1))
    image_gap = max(math.dist(images[k + 1], images[k]) for k in range(tail, len(ladder) - 1))
    if point_gap >= tol:
        raise WitnessFailedError(f"base points are not Cauchy: tail gap {point_gap:.3g}")
    # the last image sums terms up to |g_n| (1 + |x_n|) in size, each rounded
    # by a few ulps of it, so a gap within 16 of those ulps says nothing
    size = norms[-1] * (1 + math.hypot(*points[-1]))
    if tol <= image_gap <= 16 * math.ulp(size):
        raise OverflowError(f"images of size {size:.3g} cannot resolve tol {tol:g}")
    if image_gap >= tol:
        raise WitnessFailedError(f"images are not Cauchy: tail gap {image_gap:.3g}")
    return WitnessReport(steps=tuple(ladder), group_norms=tuple(norms),
                         point_gap=point_gap, image_gap=image_gap)


# ---------------------------------------------------------------------------
# Parameter recovery (properness, constructive)
# ---------------------------------------------------------------------------


RECOVERY_TOL = 1e-9  # endpoint tolerance when the section is a float exponential


def _sample_fraction(rng, lo=-8, hi=8, den=5):
    return Fraction(rng.randint(lo * den, hi * den), den)


def _sample_point(rng):
    return vec4(*(_sample_fraction(rng) for _ in range(4)))


def _image(g, x):
    """g . x as Fractions, for an exact or a float isometry; a float image
    converts exactly, so the solves downstream stay in the rationals."""
    return tuple(map(Fraction, act(g, x)))


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
        form = echelon_form(z.trans for z in cert.kernel)
        k = translation(vsub(d, [x / form[1] for x in reduce_form(form, d)]))
    else:
        u, v = vsub(sx, cert.point), vsub(y, cert.point)
        w = vadd(u, v)
        beta = solve_linear(transpose([matvec(z.linear, w) for z in cert.kernel]),
                            vsub(v, u)).particular
        if beta is None:
            raise RecoveryMismatchError("no kernel rotation carries s.x to y")
        k = _kernel_element(cert, beta)
    g = compose(k, s)
    gap = max(abs(a - b) for a, b in zip(_image(g, x), y))
    if gap > (RECOVERY_TOL if isinstance(g.v[0], float) else 0):
        raise RecoveryMismatchError(f"recovered element misses y by {float(gap):.3g}")
    return g


def parameter_recovery_check(kind, params, trials: int = 100) -> None:
    """Run seeded recovery trials on one proper group.

    kind must be 'clock', with params {'basis': basis} for a subalgebra h
    with a clock certificate.  Each trial draws g = k o exp(Z), with Z the
    section of the rates of a random rational combination of the basis and
    k a random kernel element, pushes a random point x through g, and
    demands that :func:`recover_element` rebuild from (x, g . x) alone an
    element that reproduces the endpoint: exactly when Z is nilpotent, at
    RECOVERY_TOL otherwise.  The first trial that fails raises
    RecoveryMismatchError.
    """
    if kind != "clock":
        raise ValueError(f"unknown recovery kind: {kind}")
    cert = clock_certificate(require_closed(params["basis"]))
    if cert is None:
        raise ValueError("the algebra has no clock certificate")
    rng = random.Random(777)
    for _ in range(trials):
        x = _sample_point(rng)
        # |a| <= 2 keeps a boost section's float endpoint within RECOVERY_TOL
        # for drifts down to 1/1000, where reading the rapidity off the
        # clock divides float error by the drift
        a = [_sample_fraction(rng, -2, 2, 7) for _ in cert.basis]
        s = _section(cert, [sum(r * c for r, c in zip(rates, a)) for _, rates in cert.clocks])
        k = _kernel_element(cert, [_sample_fraction(rng, -3, 3, 4) for _ in cert.kernel])
        recover_element(cert, x, act(k, _image(s, x)))

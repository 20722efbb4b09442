"""Orbit analysis: orbit dimension and causal type at a point, the generic
orbit dimension at one integer point and with it the exact cohomogeneity,
the orbit strata via seeded exact sampling, symbolic invariant-function
certification, orbit spaces derived from the Killing fields, and their
evidence (line vs half-line with singular-orbit data).

Everything here is exact: sample points are rational, ranks and causal types
come from exact integer elimination (never a numerical threshold), and
invariance of a function along the action is certified by polynomial
identities, not by numerical quadrature.

One routine builds every rational point's report: one forward-only integer
rank of the fields modulo the translations, at the point's pre-scaled
integer form; its tangent basis and causal class are derived when first
read.  The survey's samples share their integer forms.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product, repeat
from operator import mul
from typing import NamedTuple

from .algebra import AlgebraElement, fundamental_field
from .linalg import (CausalClass, CausalKind, causal_class, frac, integer_rank, integer_rref,
                     integral, kernel_of, matvec, mink_inner, rank_of, solve_linear,
                     sylvester_signature, transpose)
from .subalgebra import Subalgebra, _Record, lorentz_invariants


class EvidenceFailedError(AssertionError):
    """An orbit-space evidence obligation did not hold."""


class NotInvariantError(ValueError):
    """A candidate invariant fails along the action; carries a witness."""

    def __init__(self, element_index, derivative, point, value):
        self.element_index = element_index
        self.derivative = derivative
        self.point = point
        self.value = value
        super().__init__(
            f"Lie derivative along basis element {element_index} is nonzero "
            f"(value {value} at {point})"
        )


# ---------------------------------------------------------------------------
# Exact polynomials in the four point coordinates
# ---------------------------------------------------------------------------


class Poly:
    """Multivariate polynomial in p1..p4 over the rationals (dict of monomials)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c = frac(c)
                if c != 0:
                    self.terms[tuple(mono)] = c

    @staticmethod
    def const(c):
        return Poly({(0, 0, 0, 0): frac(c)})

    @staticmethod
    def var(k):
        return Poly.covector([int(j == k) for j in range(4)])

    @staticmethod
    def covector(cov):
        """Linear form cov . p."""
        return Poly({tuple(int(j == k) for j in range(4)): c for k, c in enumerate(cov)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return Poly(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                out[mono] = out.get(mono, Fraction(0)) + c1 * c2
        return Poly(out)

    def scale(self, c):
        c = frac(c)
        return Poly({m: c * v for m, v in self.terms.items()})

    def diff(self, k):
        out = {}
        for mono, c in self.terms.items():
            if mono[k]:
                new = list(mono)
                new[k] -= 1
                out[tuple(new)] = out.get(tuple(new), Fraction(0)) + c * mono[k]
        return Poly(out)

    def eval(self, p):
        """The value at a rational p, summed in integers: the coefficients are
        a_m / c over one denominator c, the point is (D p, D), and each
        monomial is homogenized by D to the degree n, so the value is
        sum a_m (D p)^m D^(n - |m|) / (c D^n)."""
        (coeffs,), c = integral([list(self.terms.values())])
        q = integral([(*p, 1)])[0][0]
        n = max(map(sum, self.terms), default=0)
        return Fraction(sum(a * math.prod(map(pow, q, (*m, n - sum(m))))
                            for m, a in zip(self.terms, coeffs)), c * q[4] ** n)

    def nonzero_point(self):
        """A small integer point where the polynomial is nonzero (None if zero)."""
        if self.is_zero():
            return None
        grid = [Fraction(x) for x in (0, 1, -1, 2, -2, 3, -3)]
        # None is unreachable for the low degrees used here
        return next((p for p in product(grid, repeat=4) if self.eval(p) != 0), None)

    def __repr__(self):
        if not self.terms:
            return "0"
        names = ("p1", "p2", "p3", "p4")
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [f"{names[k]}^{e}" if e > 1 else names[k]
                       for k, e in enumerate(mono) if e]
            body = "*".join(factors)
            parts.append(f"{c}" + (f"*{body}" if body else ""))
        return " + ".join(parts)


def field_polys(elt: AlgebraElement):
    """The four components of elt's Killing field as degree-one polynomials."""
    return [Poly.const(t) + Poly.covector(row) for row, t in zip(elt.linear, elt.trans)]


def lie_derivative(f: Poly, elt: AlgebraElement) -> Poly:
    comps = field_polys(elt)
    out = Poly()
    for k in range(4):
        out = out + f.diff(k) * comps[k]
    return out


class ExpInvariant(NamedTuple):
    """Invariant of the form F(p) = L(p) * exp(-E(p)/scale) for the affine
    level L(p) = level_cov . p + level_const and the covector E.

    Not polynomial, but its constancy along the action is still an exact
    polynomial identity: scale*L(v) - L(p)*E(v) = 0 for every generator field
    v.  Exact values, the levels L, are only extracted where E vanishes.
    """

    level_cov: tuple
    exp_cov: tuple
    scale: Fraction
    level_const: Fraction = Fraction(0)

    @property
    def level(self) -> Poly:
        return Poly.covector(self.level_cov) + Poly.const(self.level_const)

    def lie_identity(self, elt: AlgebraElement) -> Poly:
        return (lie_derivative(self.level, elt).scale(self.scale)
                - self.level * lie_derivative(Poly.covector(self.exp_cov), elt))

    def eval(self, p):
        if sum(map(mul, self.exp_cov, p)) != 0:
            raise ValueError("exact value only available where the exponent vanishes")
        return sum(map(mul, self.level_cov, p)) + self.level_const


def invariant_function_check(h: Subalgebra, f) -> None:
    """Certify L_X f = 0 for every basis element X, as a polynomial identity;
    for an :class:`ExpInvariant`, its identity.

    Raises NotInvariantError with an explicit witness point otherwise.
    """
    for idx, elt in enumerate(h.basis):
        deriv = f.lie_identity(elt) if isinstance(f, ExpInvariant) else lie_derivative(f, elt)
        if not deriv.is_zero():
            point = deriv.nonzero_point()
            raise NotInvariantError(idx, deriv, point, deriv.eval(point))


# ---------------------------------------------------------------------------
# Points with coordinates in a real quadratic field
# ---------------------------------------------------------------------------


def _surd_text(a, b, d):
    """a + b sqrt(d) as text, e.g. '-3/2+1/2*sqrt(13)'."""
    return f"{a}{'+' if b > 0 else ''}{b}*sqrt({d})" if b else str(a)


class QuadraticPoint(_Record):
    """The point ``rational`` + sqrt(d) ``surd`` of Q(sqrt d)^4, for a rational
    d > 0 that is no square, as :func:`quadratic_point` builds it; readers
    work on its two rational halves.  Not a tuple, unlike a rational point."""

    rational: tuple
    surd: tuple
    d: Fraction

    def __init__(self, rational, surd, d):
        vars(self).update(rational=rational, surd=surd, d=d)

    def __str__(self):
        return "(" + ",".join(map(_surd_text, self.rational, self.surd, repeat(self.d))) + ")"


def rational_sqrt(q):
    """sqrt(q) for a rational q >= 0 whose square root is rational, else None."""
    n, m = (math.isqrt(q.numerator), math.isqrt(q.denominator)) if q >= 0 else (0, 0)
    return Fraction(n, m) if (n * n, m * m) == (q.numerator, q.denominator) else None


def quadratic_point(rational, surd, d):
    """The point rational + sqrt(d) surd, for a rational d >= 0: a tuple of
    Fractions when sqrt(d) is rational or surd is zero, else a QuadraticPoint."""
    rational, surd, d = tuple(map(frac, rational)), tuple(map(frac, surd)), frac(d)
    root = rational_sqrt(d)
    if any(surd) and root is None:
        return QuadraticPoint(rational, surd, d)
    return tuple(a + (root or 0) * b for a, b in zip(rational, surd))


def point_text(p) -> str:
    """A rational or quadratic point as text, e.g. '(0,0,1,-1)'."""
    return str(p) if isinstance(p, QuadraticPoint) else "(" + ",".join(map(str, p)) + ")"


def killing_matrix(h: Subalgebra, p):
    """The 4 x k matrix of Killing fields of h's basis at a rational p; at
    p0 + sqrt(d) p1, where the fields are A + sqrt(d) B (B the linear parts at
    p1), its rational realification [[A, dB], [B, A]], whose kernel holds
    (c0, c1) for each c0 + sqrt(d) c1 of the kernel over Q(sqrt d)."""
    if not isinstance(p, QuadraticPoint):
        return transpose([fundamental_field(b, p) if any(p) else b.trans for b in h.basis])
    a = killing_matrix(h, p.rational)
    b = transpose([matvec(x.linear, p.surd) for x in h.basis])
    return ([(*ra, *(p.d * x for x in rb)) for ra, rb in zip(a, b)]
            + [(*rb, *ra) for ra, rb in zip(a, b)])


# ---------------------------------------------------------------------------
# Orbit dimension and cohomogeneity
# ---------------------------------------------------------------------------


class OrbitReport:
    """The orbit through ``point``: its ``dim``, and its reduced echelon
    (Fraction) ``tangent_basis`` and ``causal`` class, derived on first read
    from ``echelon()``, the :func:`integer_rref` of the Killing fields at the
    point (``echelon`` is None at a :class:`QuadraticPoint`, which has
    neither).  No attribute can be assigned: :func:`orbit_dimension` hands
    out the report it caches."""

    def __init__(self, point, dim, echelon):
        vars(self).update(point=point, dim=dim, _source=echelon)

    __setattr__ = _Record.__setattr__

    @cached_property
    def _echelon(self):
        return self._source()

    @cached_property
    def tangent_basis(self):
        rows, pivots = self._echelon
        return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(rows, pivots))

    @cached_property
    def causal(self) -> CausalClass:
        return causal_class(self._echelon[0])


def _report(h: Subalgebra, p, scaled) -> OrbitReport:
    """The report at a rational p, ``scaled`` = (D*p, D): its rank is t plus
    the rank of the ``h.quotient_rows`` fields, those modulo the t
    translations; its echelon is computed when a check first reads it."""
    t, rows = h.quotient_rows
    return OrbitReport(p, t + integer_rank([matvec(g, scaled) for g in rows]),
                       lambda: integer_rref([matvec(g, scaled) for g in h.killing_rows]))


def orbit_dimension(h: Subalgebra, p) -> OrbitReport:
    """Exact rank of the orbit through p (:func:`_report`); its tangent basis
    and causal class follow on first read.  At a :class:`QuadraticPoint` the
    rank is half that of the :func:`killing_matrix` realification, and the
    report has no tangent basis or causal class.  Each point's report is
    computed once per subalgebra and kept in ``h.orbit_reports``."""
    if not isinstance(p, QuadraticPoint):
        p = tuple(frac(x) for x in p)
    rep = h.orbit_reports.get(p)
    if rep is None:
        rep = h.orbit_reports[p] = (
            OrbitReport(p, rank_of(killing_matrix(h, p)) // 2, None)
            if isinstance(p, QuadraticPoint) else _report(h, p, integral([(*p, 1)])[0][0]))
    return rep


def generic_orbit_dimension(h: Subalgebra, seen: int = 0) -> int:
    """The generic orbit dimension of h, exactly.  ``seen``, a rank at some
    real point, is a lower bound and the answer where it meets an upper
    bound: d = min(k, 4), or 3 where h fixes a point q (its translation
    normal form has no translation part), as each field X (p - q) is then
    eta-orthogonal to p - q.  Else it is the :func:`_report` rank at p*: 0
    on the pivot coordinates of the translation ideal V if X V lies in V for
    every X (as in a closed h; the rank then depends on p only modulo V), and
    T^((d+1)^i) on the i-th other coordinate, T = 2 + d! S^d, S the largest
    |entries| sum of a row of ``h.killing_rows`` on those coordinates and the
    constant.  Such a row dotted with (p, 1) is a positive multiple of a
    field component, so a j x j minor (j <= d) has degree <= d and integer
    coefficients of at most j! S^j <= d! S^d.  Base-(d+1) exponents keep
    distinct monomials at distinct powers of T, and by Cauchy's bound no
    root of a nonzero minor reaches T, so a minor nonzero anywhere is
    nonzero at p*."""
    d = min(h.dim, 4)
    if seen == d or seen == 3 and not any(x for row in h.normal_form[1][0] for x in row[6:]):
        return seen
    _, (ideal, _), pivots = h.parts
    if any(sum(map(mul, r, v)) for gen in h.quotient_rows[1] for r in gen for v in ideal):
        pivots = ()  # X V is not in V: every coordinate stays free
    s = max((sum(abs(x) for c, x in enumerate(r) if c not in pivots)
             for gen in h.killing_rows for r in gen), default=0)
    powers = ((2 + math.factorial(d) * s ** d) ** (d + 1) ** i for i in range(4))
    p = tuple(0 if c in pivots else next(powers) for c in range(4))
    return _report(h, p, (*p, 1)).dim


_DENOMINATORS = (3, 4, 5, 7)


@lru_cache(maxsize=8)
def _samples(seed: int, n: int):
    """(points, scaled): n rational points in [-10, 10]^4 from seed, with
    distinct small prime-ish denominators per coordinate, and their integer
    forms (D*p, D), drawn once per (seed, n) and shared by every survey."""
    rng = random.Random(seed)
    points = tuple(tuple(Fraction(rng.randint(-10 * d, 10 * d), d) for d in _DENOMINATORS)
                   for _ in range(n))
    return points, tuple(integral([(*p, 1)])[0][0] for p in points)


class CohomReport(NamedTuple):
    max_orbit_dim: int  # the exact generic orbit dimension
    cohomogeneity: int
    strata: tuple  # one OrbitReport per evaluated point: samples, then extras

    def observed_dims(self):
        """The generic dimension and every surveyed point's, descending."""
        return tuple(sorted({self.max_orbit_dim, *(r.dim for r in self.strata)}, reverse=True))


def cohomogeneity(h: Subalgebra, seed: int = 42, samples: int = 32,
                  extra_points=()) -> CohomReport:
    """The exact cohomogeneity, 4 - :func:`generic_orbit_dimension`, and the
    OrbitReport of each seeded sample and declared special point, kept for
    the checks that reuse the survey; seed and samples move only the latter.
    The samples share their integer forms and bypass ``h.orbit_reports``."""
    points, scaled = _samples(seed, samples)
    strata = (*map(_report, repeat(h), points, scaled),
              *(orbit_dimension(h, p) for p in extra_points))
    best = generic_orbit_dimension(h, max((rep.dim for rep in strata), default=0))
    return CohomReport(max_orbit_dim=best, cohomogeneity=4 - best, strata=strata)


# ---------------------------------------------------------------------------
# Orbit-space evidence
# ---------------------------------------------------------------------------


class OrbitSpaceKind(Enum):
    LINE = "Line"
    HALFLINE = "HalfLine"


# the causal kind of a hypersurface orbit, indexed by the sign of N: 0, +1, -1
_KINDS = (CausalKind.DEGENERATE, CausalKind.LORENTZIAN, CausalKind.SPACELIKE)


class OrbitSpaceSpec(_Record):
    """Orbit-space evidence obligations, as :func:`orbit_space_spec` derives
    them: ``transversal`` holds exact points meant to hit pairwise distinct
    orbits; ``singular`` (half-line only) is the (dim, CausalKind) of the
    orbit at the invariant's boundary level 0."""

    kind: OrbitSpaceKind
    invariant: object  # Poly or ExpInvariant
    transversal: tuple
    singular: tuple | None  # (dim, CausalKind)

    def __init__(self, kind, invariant, transversal, singular=None):
        vars(self).update(kind=kind, invariant=invariant, transversal=transversal,
                          singular=singular)

    @cached_property
    def gradient_norm(self) -> Poly:
        """N = eta(grad f, grad f); for sigma exp(-E/s), eta of
        s grad sigma - sigma grad E, a positive multiple of its gradient's."""
        f = self.invariant
        grad = ([Poly.const(f.scale * a) - f.level.scale(e)
                 for a, e in zip(f.level_cov, f.exp_cov)] if isinstance(f, ExpInvariant)
                else [f.diff(k) for k in range(4)])
        return mink_inner(grad, grad)

    def causal_at(self, p) -> CausalKind:
        """The causal kind of the level-set orbit through p: Lorentzian,
        spacelike or degenerate as N(p) is positive, negative or zero."""
        value = self.gradient_norm.eval(p)
        return _KINDS[(value > 0) - (value < 0)]

    @property
    def principal_causal(self) -> CausalKind:
        """The causal kind off the zeros of N."""
        return self.causal_at(self.gradient_norm.nonzero_point() or (0, 0, 0, 0))


def _kernel_line(rows):
    """The kernel of ``rows`` if it is a line, as a primitive integer vector
    (in Fractions) with its first nonzero entry positive; else None."""
    kernel = kernel_of(rows)
    if len(kernel) != 1:
        return None
    v, = kernel
    return v if next(x for x in v if x) > 0 else tuple(-x for x in v)


def _invariant_form(h: Subalgebra, monomials):
    """The line of invariant forms in ``monomials`` ((i,) is p_i, (i, j) is
    p_i p_j) as a :func:`_kernel_line`, or None.  One row per generator and
    image monomial, from ``h.killing_rows``: row m is a positive multiple of
    field component v_m = X_m . p + x_m, and d(p_m rest) adds rest * v_m."""
    rows = []
    for gen in h.killing_rows:
        image = {}
        for col, mono in enumerate(monomials):
            for pos, m in enumerate(mono):
                rest = mono[:pos] + mono[pos + 1:]
                for k, c in enumerate(gen[m]):
                    if c:
                        key = tuple(sorted(rest + (k,))) if k < 4 else rest
                        image.setdefault(key, [0] * len(monomials))[col] += c
        rows.extend(image.values())
    line = _kernel_line(rows)
    return line and Poly({tuple(map(mono.count, range(4))): c
                          for mono, c in zip(monomials, line)})


def clocks(h: Subalgebra):
    """The clocks of h, (c, rates) for the covectors c with c X_b = 0 on each
    basis element b = (X_b, x_b), one kernel of the stacked transposed linear
    parts: l(p) = c . p has the constant Lie derivative rates[b] = c . x_b."""
    return [(c, tuple(sum(map(mul, c, b.trans)) for b in h.basis))
            for c in kernel_of([col for b in h.basis for col in transpose(b.linear)])]


def _semi_invariant(h: Subalgebra):
    """sigma exp(-E/s), for a clock E of rates r_b and an affine
    sigma(p) = sigma . p + sigma0 with sigma X_b = (r_b/s) sigma and
    sigma . x_b = (r_b/s) sigma0 on each basis element b = (X_b, x_b), so
    L_b sigma = (r_b/s) sigma; s = r_b / k for the rational eigenvalue
    k = +-sqrt(tr(X_b^2)/2) of a boost part.  The clocks are one kernel of the
    linear parts and the translation ideal, so each rate vanishes on the
    ideal.  None unless a clock, element and sign leave a line of (sigma, sigma0)."""
    ideal = h.parts[1][0]
    for clock in kernel_of([col for b in h.basis for col in transpose(b.linear)] + list(ideal)):
        rates = [sum(map(mul, clock, b.trans)) for b in h.basis]
        for b, rate in zip(h.basis, rates):
            root = rational_sqrt(lorentz_invariants(b.linear)[0] / 2)
            for s in (rate / root, -rate / root) if rate and root else ():
                sigma = _kernel_line(
                    [[*(x.linear[m][k] - w if m == k else x.linear[m][k] for m in range(4)), 0]
                     for x, w in zip(h.basis, [r / s for r in rates]) for k in range(4)]
                    + [[*x.trans, -r / s] for x, r in zip(h.basis, rates)])
                if sigma:
                    return ExpInvariant(sigma[:4], clock, s, sigma[4])
    return None


def _transversal(invariant):
    """The points t e_k, t = -2..2, on the first coordinate axis where the
    invariant takes five distinct values (for sigma exp(-E/s), skipping an
    axis that E reads)."""
    for k in range(4):
        if not (isinstance(invariant, ExpInvariant) and invariant.exp_cov[k]):
            points = tuple(tuple(Fraction(t * (j == k)) for j in range(4)) for t in range(-2, 3))
            if len(set(map(invariant.eval, points))) == len(points):
                return points
    raise EvidenceFailedError("no coordinate axis separates the invariant's levels")


_LINEAR = tuple((k,) for k in range(4))
_QUADRATIC = tuple((i, j) for i in range(4) for j in range(i, 4))


def orbit_space_spec(h: Subalgebra) -> OrbitSpaceSpec:
    """The orbit space of a proper cohomogeneity-one action, derived from h.

    The invariant f is the line of invariant linear forms, else of forms of
    degree at most two, else :func:`_semi_invariant`.  A polynomial f whose
    quadratic part has no negative square (Sylvester, on twice its Gram
    matrix G) and which has a critical point c, G c = -(its linear part),
    makes a half-line: the invariant is f - f(c) >= 0, the singular orbit is
    the orbit through c, and the transversal is c + t e_k, t = 0, 1, 2, on the
    first axis with G[k][k] != 0.  Anything else makes a line.  So moving the
    origin moves c and nothing else.  Raises EvidenceFailedError without an
    invariant.
    """
    f = (_invariant_form(h, _LINEAR) or _invariant_form(h, _QUADRATIC + _LINEAR)
         or _semi_invariant(h))
    if f is None:
        raise EvidenceFailedError("no invariant form or exponential semi-invariant")
    if isinstance(f, Poly):
        gram = [[f.terms.get(tuple((k == i) + (k == j) for k in range(4)), 0) * (1 + (i == j))
                 for j in range(4)] for i in range(4)]
        minus_linear = [-f.terms.get(tuple(int(j == k) for j in range(4)), 0) for k in range(4)]
        c = None if sylvester_signature(gram)[1] else solve_linear(gram, minus_linear).particular
        if c is not None:
            k = next(k for k in range(4) if gram[k][k])
            rep = orbit_dimension(h, c)
            return OrbitSpaceSpec(OrbitSpaceKind.HALFLINE, f - Poly.const(f.eval(c)),
                                  tuple(tuple(x + t * (j == k) for j, x in enumerate(c))
                                        for t in (0, 1, 2)),
                                  (rep.dim, rep.causal.kind))
    return OrbitSpaceSpec(OrbitSpaceKind.LINE, f, _transversal(f))


def orbit_space_report(h: Subalgebra, spec: OrbitSpaceSpec,
                       survey: CohomReport) -> OrbitSpaceSpec:
    """Run the evidence obligations of ``spec`` and return it once they hold.

    The invariant is certified and separates the transversal.  The probes are
    the orbits of ``survey`` (the instantiation's :func:`cohomogeneity`
    report) and of the transversal.  Line: every probe is a hypersurface.
    Half-line: the invariant is nonnegative at every probe, a probe at level 0
    is the ``singular`` orbit (dimension and causal kind), every other probe
    is a hypersurface, and the transversal meets level 0.  Raises
    EvidenceFailedError on any breach.
    """
    invariant_function_check(h, spec.invariant)
    values = [spec.invariant.eval(p) for p in spec.transversal]
    if len(set(values)) != len(values):
        raise EvidenceFailedError("transversal does not separate orbit levels")
    half = spec.kind is OrbitSpaceKind.HALFLINE
    if half and spec.singular is None:
        raise EvidenceFailedError("no singular orbit at the boundary level")
    if half and 0 not in values:
        raise EvidenceFailedError("transversal misses the boundary level")
    for rep in (*survey.strata, *(orbit_dimension(h, p) for p in spec.transversal)):
        level = spec.invariant.eval(rep.point) if half else 1  # a line has no boundary
        if level < 0:
            raise EvidenceFailedError(f"invariant is negative at {point_text(rep.point)}")
        if level == 0 and (rep.dim, rep.causal.kind) != spec.singular:
            raise EvidenceFailedError(
                f"boundary orbit at {point_text(rep.point)} has dim {rep.dim} "
                f"{rep.causal.kind.value}, expected the singular dim {spec.singular[0]} "
                f"{spec.singular[1].value}")
        if level and rep.dim != 3:
            raise EvidenceFailedError(
                f"expected a 3-dimensional orbit at {point_text(rep.point)}, got {rep.dim}")
    return spec

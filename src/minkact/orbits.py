"""Orbit analysis: orbit dimension and causal type at a point, cohomogeneity
via seeded exact sampling, symbolic invariant-function certification, and
orbit-space evidence (line vs half-line with singular-orbit data).

Everything here is exact: sample points are rational, ranks and causal types
come from exact integer elimination (never a numerical threshold), and
invariance of a function along the action is certified by polynomial
identities, not by numerical quadrature.

The cohomogeneity survey computes ranks only: one integer elimination per
shared, pre-scaled sample point.  A point's tangent basis and causal class are
derived from that elimination when first read, which few checks do.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product, repeat
from operator import mul

from .algebra import AlgebraElement, fundamental_field
from .linalg import (CausalClass, causal_class, frac, integer_rref, integral, matvec, rank_of,
                     transpose)
from .subalgebra import Subalgebra


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
        mono = [0, 0, 0, 0]
        mono[k] = 1
        return Poly({tuple(mono): Fraction(1)})

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
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) - c
        return Poly(out)

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
        total = Fraction(0)
        for mono, c in self.terms.items():
            term = c
            for k, e in enumerate(mono):
                for _ in range(e):
                    term *= p[k]
            total += term
        return total

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


@dataclass(frozen=True)
class InvariantCertificate:
    """Symbolic proof that a polynomial is constant on every orbit."""

    function: Poly
    n_elements: int


def invariant_function_check(h: Subalgebra, f: Poly) -> InvariantCertificate:
    """Certify L_X f = 0 for every basis element X, as a polynomial identity.

    Raises NotInvariantError with an explicit witness point otherwise.
    """
    for idx, elt in enumerate(h.basis):
        deriv = lie_derivative(f, elt)
        if not deriv.is_zero():
            point = deriv.nonzero_point()
            raise NotInvariantError(idx, deriv, point, deriv.eval(point))
    return InvariantCertificate(function=f, n_elements=len(h.basis))


@dataclass(frozen=True)
class ExpInvariant:
    """Invariant of the form F(p) = L(p) * exp(-E(p)/scale) for covectors L, E.

    Not polynomial, but its constancy along the action is still an exact
    polynomial identity: scale*L(v) - L(p)*E(v) = 0 for every generator field
    v.  Exact values are only extracted at points where E vanishes.
    """

    level_cov: tuple
    exp_cov: tuple
    scale: Fraction

    def certify(self, h: Subalgebra):
        level = Poly.covector(self.level_cov)
        exponent = Poly.covector(self.exp_cov)
        for idx, elt in enumerate(h.basis):
            deriv = (lie_derivative(level, elt).scale(self.scale)
                     - level * lie_derivative(exponent, elt))
            if not deriv.is_zero():
                point = deriv.nonzero_point()
                raise NotInvariantError(idx, deriv, point, deriv.eval(point))
        return InvariantCertificate(function=level, n_elements=len(h.basis))

    def value_exact(self, p):
        if sum(c * x for c, x in zip(self.exp_cov, p)) != 0:
            raise ValueError("exact value only available where the exponent vanishes")
        return sum(c * x for c, x in zip(self.level_cov, p))


# ---------------------------------------------------------------------------
# Points with coordinates in a real quadratic field
# ---------------------------------------------------------------------------


def _surd_text(a, b, d):
    """a + b sqrt(d) as text, e.g. '-3/2+1/2*sqrt(13)'."""
    return f"{a}{'+' if b > 0 else ''}{b}*sqrt({d})" if b else str(a)


@dataclass(frozen=True)
class QuadraticPoint:
    """The point ``rational`` + sqrt(d) ``surd`` of Q(sqrt d)^4, for a rational
    d > 0 that is no square, as :func:`quadratic_point` builds it; readers
    work on its two rational halves."""

    rational: tuple
    surd: tuple
    d: Fraction

    def __str__(self):
        return "(" + ",".join(map(_surd_text, self.rational, self.surd, repeat(self.d))) + ")"


def quadratic_point(rational, surd, d):
    """The point rational + sqrt(d) surd, for a rational d >= 0: a tuple of
    Fractions when sqrt(d) is rational or surd is zero, else a QuadraticPoint."""
    rational, surd, d = tuple(map(frac, rational)), tuple(map(frac, surd)), frac(d)
    n, m = math.isqrt(d.numerator), math.isqrt(d.denominator)
    if any(surd) and (n * n, m * m) != (d.numerator, d.denominator):
        return QuadraticPoint(rational, surd, d)
    return tuple(a + Fraction(n, m) * b for a, b in zip(rational, surd))


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
    """The orbit through ``point``: its ``dim``, reduced echelon (Fraction)
    ``tangent_basis`` and ``causal`` class, equal when all four are.  Unless
    given, the last two are derived on first read from ``echelon``, the
    :func:`integer_rref` of the Killing fields at the point.
    """

    def __init__(self, point, dim, tangent_basis=None, causal=None, *, echelon=((), ())):
        self.point, self.dim, self._echelon = point, dim, echelon
        if tangent_basis is not None:
            self.tangent_basis = tangent_basis
        if causal is not None:
            self.causal = causal

    @cached_property
    def tangent_basis(self):
        rows, pivots = self._echelon
        return tuple(tuple(Fraction(x, row[c]) for x in row) for row, c in zip(rows, pivots))

    @cached_property
    def causal(self) -> CausalClass:
        return causal_class(self._echelon[0])

    def _fields(self):
        return self.point, self.dim, self.tangent_basis, self.causal

    def __eq__(self, other):
        return isinstance(other, OrbitReport) and self._fields() == other._fields()

    def __repr__(self):
        return "OrbitReport(point={!r}, dim={!r}, tangent_basis={!r}, causal={!r})".format(
            *self._fields())


def _orbit_report(h: Subalgebra, p, scaled) -> OrbitReport:
    """Rank at p from ``h.killing_rows`` dotted with ``scaled`` = (D*p, D): the
    Killing fields at p, each scaled by a positive integer."""
    fields = [[sum(map(mul, row, scaled)) for row in gen] for gen in h.killing_rows]
    echelon = integer_rref(fields)
    return OrbitReport(p, len(echelon[0]), echelon=echelon)


def orbit_dimension(h: Subalgebra, p) -> OrbitReport:
    """Exact rank of the orbit through p, from integer elimination on the
    Killing fields at p; its tangent basis and causal class follow on first
    read (see :class:`OrbitReport`).  At a :class:`QuadraticPoint` the rank is
    half that of the :func:`killing_matrix` realification, and the report has
    no tangent basis or causal class."""
    if isinstance(p, QuadraticPoint):
        return OrbitReport(p, rank_of(killing_matrix(h, p)) // 2, echelon=None)
    p = tuple(frac(x) for x in p)
    return _orbit_report(h, p, integral([(*p, 1)])[0][0])


_DENOMINATORS = (3, 4, 5, 7)


@lru_cache(maxsize=8)
def _samples(seed: int, n: int):
    rng = random.Random(seed)
    points = tuple(tuple(Fraction(rng.randint(-10 * d, 10 * d), d) for d in _DENOMINATORS)
                   for _ in range(n))
    return points, tuple(integral([(*p, 1)])[0][0] for p in points)


def sample_points(seed: int, n: int):
    """n pseudo-random rational points in [-10, 10]^4, reproducible from seed.

    Per-coordinate denominators are distinct small primes-ish so that the
    samples rarely strike thin degenerate loci by accident.  Drawn once per
    (seed, n) with their integer forms (D*p, D) into a small bounded cache, so
    every caller shares one tuple of tuples.
    """
    return _samples(seed, n)[0]


@dataclass(frozen=True)
class CohomReport:
    max_orbit_dim: int
    cohomogeneity: int
    strata: tuple  # one OrbitReport per evaluated point: samples, then extras

    def observed_dims(self):
        return tuple(sorted({rep.dim for rep in self.strata}, reverse=True))


def cohomogeneity(h: Subalgebra, seed: int = 42, samples: int = 32,
                  extra_points=()) -> CohomReport:
    """Max orbit dimension over seeded samples plus declared special points,
    with every point's OrbitReport kept for the checks that reuse the survey.
    Only ranks are computed; a report derives the rest if a check reads it."""
    points, scaled = _samples(seed, samples)
    strata = (*(_orbit_report(h, p, s) for p, s in zip(points, scaled)),
              *(orbit_dimension(h, p) for p in extra_points))
    best = max((rep.dim for rep in strata), default=0)
    return CohomReport(max_orbit_dim=best, cohomogeneity=4 - best, strata=strata)


# ---------------------------------------------------------------------------
# Orbit-space evidence
# ---------------------------------------------------------------------------


class OrbitSpaceKind(Enum):
    LINE = "Line"
    HALFLINE = "HalfLine"


@dataclass(frozen=True)
class OrbitSpaceSpec:
    """Declared orbit-space evidence obligations for a catalog entry.

    ``transversal`` is a tuple of exact points meant to hit pairwise distinct
    orbits; ``singular`` (half-line case only) is (dim, CausalKind) together
    with witness points realizing the singular orbit.
    """

    kind: OrbitSpaceKind
    invariant: object  # Poly or ExpInvariant
    transversal: tuple
    singular: tuple | None = None  # (dim, CausalKind)
    singular_witnesses: tuple = ()


@dataclass(frozen=True)
class OrbitSpaceReport:
    kind: OrbitSpaceKind
    singular: tuple | None
    notes: tuple


def _invariant_value(spec: OrbitSpaceSpec, p):
    if isinstance(spec.invariant, ExpInvariant):
        return spec.invariant.value_exact(p)
    return spec.invariant.eval(p)


def orbit_space_report(h: Subalgebra, spec: OrbitSpaceSpec,
                       survey: CohomReport) -> OrbitSpaceReport:
    """Run the evidence obligations for a declared orbit-space type.

    Line: certified invariant, all orbits of ``survey`` (the instantiation's
    :func:`cohomogeneity` report) and of the transversal of dimension 3,
    invariant separating the transversal.  Half-line: additionally one singular
    orbit with the declared dimension and causal class at the boundary level
    0 of the invariant, every off-boundary surveyed orbit three-dimensional and
    the invariant nonnegative.  Declared points the survey lacks are evaluated
    here.  Raises EvidenceFailedError on any breach.
    """
    surveyed = {rep.point: rep for rep in survey.strata}
    notes = []
    if isinstance(spec.invariant, ExpInvariant):
        spec.invariant.certify(h)
        notes.append("invariant certified (exponential form, exact identity)")
    else:
        invariant_function_check(h, spec.invariant)
        notes.append("invariant certified (polynomial identity)")

    values = [_invariant_value(spec, p) for p in spec.transversal]
    if len(set(values)) != len(values):
        raise EvidenceFailedError("transversal does not separate orbit levels")
    notes.append(f"transversal hits {len(values)} distinct invariant levels")

    if spec.kind is OrbitSpaceKind.LINE:
        probed = [*survey.strata, *(surveyed.get(p) or orbit_dimension(h, p)
                                   for p in spec.transversal)]
        for rep in probed:
            if rep.dim != 3:
                raise EvidenceFailedError(f"expected a 3-dimensional orbit at {rep.point}, "
                                          f"got {rep.dim}")
        notes.append(f"all {len(probed)} probed orbits are hypersurfaces")
        return OrbitSpaceReport(OrbitSpaceKind.LINE, None, tuple(notes))

    sing_dim, sing_kind = spec.singular
    for w in spec.singular_witnesses:
        rep = surveyed.get(w) or orbit_dimension(h, w)
        if rep.dim != sing_dim or rep.causal.kind is not sing_kind:
            raise EvidenceFailedError(
                f"singular witness {w}: got dim {rep.dim} {rep.causal.kind.value}, "
                f"expected dim {sing_dim} {sing_kind.value}"
            )
        if _invariant_value(spec, w) != 0:
            raise EvidenceFailedError("singular witness is not at the boundary level")
    notes.append(f"singular orbit verified: dim {sing_dim}, {sing_kind.value}")

    for rep in survey.strata:
        value = _invariant_value(spec, rep.point)
        if value < 0:
            raise EvidenceFailedError("invariant is not one-sided")
        expected = sing_dim if value == 0 else 3
        if rep.dim != expected:
            raise EvidenceFailedError(
                f"orbit at {rep.point} has dim {rep.dim}, expected {expected}"
            )
    if any(v == 0 for v in values):
        notes.append("transversal includes the boundary orbit")
    else:
        raise EvidenceFailedError("transversal misses the boundary level")
    if any(v < 0 for v in values):
        raise EvidenceFailedError("transversal crosses the boundary level")
    notes.append(f"off-boundary samples are hypersurfaces ({len(survey.strata)} checked)")
    return OrbitSpaceReport(OrbitSpaceKind.HALFLINE, spec.singular, tuple(notes))

"""Subalgebra bookkeeping: closure, translation/linear splitting, the
translation-conjugation normal form of a span (read off its echelon rows, so
independent of the basis given), one-parameter type classification, and the
invariant profile used for catalog matching.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    AlgebraElement,
    NotClosedError,
    coords10,
    linear_from_coords,
    structure_constants,
)
from .linalg import (
    CausalClass,
    causal_type,
    char_poly,
    echelon_form,
    integral,
    mat_is_zero,
    matvec,
    reduce_form,
    solve_linear,
    vadd,
)


class OneParamType(Enum):
    ZERO = "Zero"
    ELLIPTIC = "Elliptic"
    HYPERBOLIC = "Hyperbolic"
    PARABOLIC = "Parabolic"
    MIXED = "Mixed"


class _Record:
    """A record that must not be a tuple: the fields its class annotates are
    set once, through ``vars(self)``, and give its equality, hash and repr;
    no attribute can be assigned (``cached_property`` writes to ``vars``)."""

    def _values(self):
        return tuple(vars(self)[name] for name in type(self).__annotations__)

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, type(self).__annotations__, self._values())
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")


class Subalgebra(_Record):
    """A closed subalgebra: independent basis plus cached structure constants.

    ``structure[(i, j)]`` holds the coordinates of [basis_i, basis_j] in the
    basis, for i < j.  Construct through :func:`closure_check`, or as
    ``Subalgebra(new_basis, h.structure)`` when ``new_basis`` is h's basis under
    an automorphism such as Ad of an isometry: [Ad b_i, Ad b_j] =
    sum_k c^k_ij Ad b_k, so the structure constants carry over unchanged.
    Equal only to itself.
    """

    basis: tuple
    structure: dict

    # orbit_reports: point -> its orbits.orbit_dimension report, filled there,
    # so that each point's orbit is computed once per subalgebra
    def __init__(self, basis, structure):
        vars(self).update(basis=basis, structure=structure, orbit_reports={})

    __eq__, __hash__ = object.__eq__, object.__hash__

    @property
    def dim(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def killing_rows(self):
        """Per basis element, the rows (L*X | L*x) of its linear part X and
        translation x, L > 0 their common denominator: row m dotted with the
        integer point (D*p, D) is L*D times component m of the field at p."""
        return tuple(integral([(*row, t) for row, t in zip(b.linear, b.trans)])[0]
                     for b in self.basis)

    @functools.cached_property
    def parts(self):
        """(linear, ideal, pivots), the one reading of the echelon order (linear
        rows first): per echelon row with a linear part, the row and its d*X as
        an integer matrix; the translation ideal's echelon form, the last four
        entries of its rows over d; and the pivot columns of those rows."""
        rows, d = self.echelon_rows
        linear = tuple((row, linear_from_coords(row[:6], int)) for row in rows if any(row[:6]))
        ideal = tuple(row[6:] for row in rows[len(linear):])
        return linear, (ideal, d), tuple(next(c for c, x in enumerate(v) if x) for v in ideal)

    @functools.cached_property
    def quotient_rows(self):
        """(t, rows): the translation ideal's dimension t and, per linear echelon
        row, the rows d*r_q - sum_j T_j[q] r_(P_j) of its integer (d*X | d*x) for
        each column q that no ideal row T_j (pivot P_j) pivots on.  Dotted with
        (D*p, D), they give its field at p modulo the ideal's constant fields."""
        linear, ideal, pivots = self.parts
        rows = []
        for row, mat in linear:  # reduce_form of each column of (d*X | d*x)
            cols = [reduce_form(ideal, col) for col in (*zip(*mat), row[6:])]
            rows.append(tuple([c[q] for c in cols] for q in range(4) if q not in pivots))
        return len(pivots), tuple(rows)

    @functools.cached_property
    def profile(self):
        """The :func:`invariants` profile, computed once per subalgebra."""
        return invariants(self)

    @functools.cached_property
    def normal_form(self):
        """(p, form): the translation normal form of the span, computed once
        per subalgebra; see :func:`normalize_translations`."""
        return _translation_normal_form(self)

    @functools.cached_property
    def echelon_rows(self):
        """The span's :func:`echelon_form` (rows, d), linear rows first, computed once."""
        return echelon_form(coords10(b) for b in self.basis)


class NotClosed(NamedTuple):
    """Failed closure verdict with the witness bracket."""

    i: int
    j: int
    witness: AlgebraElement

    def describe(self) -> str:
        return f"[basis {self.i}, basis {self.j}] leaves the span"


def closure_check(basis):
    """Decide closure of the span of ``basis``; exact, witness on failure.

    Returns a :class:`Subalgebra` (with structure constants cached) or a
    :class:`NotClosed` verdict, both from one :func:`structure_constants`
    solve.  Raises DependentBasisError for dependent input, since structure
    constants would be ill-defined.
    """
    basis = tuple(basis)
    try:
        return Subalgebra(basis=basis, structure=structure_constants(basis))
    except NotClosedError as err:
        return NotClosed(i=err.i, j=err.j, witness=err.residual)


def require_closed(basis) -> Subalgebra:
    verdict = closure_check(basis)
    if isinstance(verdict, NotClosed):
        raise ValueError(f"not a subalgebra: {verdict.describe()}")
    return verdict


def _translation_normal_form(h: Subalgebra):
    """(p, echelon form of the span recentred at p), read off the span alone.

    The echelon rows of h are d times linear rows (X_i, x_i), then d times the
    translation ideal's rows (0, t).  Recentring at p makes the decorations
    x_i, stacked and reduced modulo the ideal, D + M p: column j of M is
    X_i e_j reduced modulo the ideal, stacked over i.  Their canonical value
    is the remainder r of D modulo the column span of M, and p solves
    M p = r - D.  Here d^2 M and e d r are integers, e the denominator of the
    echelon form of M's columns, and so are the recentred rows over e d.
    """
    linear, ideal, _ = h.parts
    if not linear:
        return (Fraction(0),) * 4, h.echelon_rows
    d = ideal[1]
    moves = [[x for _, m in linear for x in reduce_form(ideal, [r[j] for r in m])]
             for j in range(4)]
    decorations = [x for row, _ in linear for x in row[6:]]
    moves_form = echelon_form(moves)
    residual, e = reduce_form(moves_form, decorations), moves_form[1]
    p = solve_linear([[e * x for x in row] for row in zip(*moves)],
                     [d * (r - e * x) for r, x in zip(residual, decorations)]).particular
    normal = [(*(e * x for x in row[:6]), *residual[4 * i:4 * i + 4])
              for i, (row, _) in enumerate(linear)]
    normal += [(0,) * 6 + tuple(e * x for x in v) for v in ideal[0]]
    g = math.gcd(e * d, *(x for row in normal for x in row))
    return p, (tuple(tuple(x // g for x in row) for row in normal), e * d // g)


def normalize_translations(h: Subalgebra):
    """Solve the translation-conjugation normal form of the span of h.

    Finds the vector p such that conjugating by the translation -p (Ad of
    (I, -p), which sends (X, x) to (X, x + Xp)) leaves only the decorations
    no translation can remove, modulo the translation ideal: exactly the
    parameters of the decorated catalog families.  p and the normalized span
    depend on the span of h alone, not on its basis, and translation
    conjugates share the normalized span.  Returns (p, normalized subalgebra).
    """
    p, _ = h.normal_form
    return p, recenter(h, p)


def recenter(h: Subalgebra, p) -> Subalgebra:
    """h with the origin moved to p: Ad of the translation by -p, in closed
    form (X, x) -> (X, x + Xp), each Killing field written from p."""
    return Subalgebra(tuple(AlgebraElement(b.linear, vadd(b.trans, matvec(b.linear, p)))
                            for b in h.basis), h.structure)


def type_from_invariants(trace_sq, pfaffian, x) -> OneParamType:
    """Type of exp(t X) from the two Lorentz invariants of X.

    so(3,1) is sl(2,C), so X has eigenvalues +-a, +-ib with
    tr(X^2) = 2(a^2 - b^2) and Pf(eta X) = +-ab.  A nonzero Pfaffian mixes a
    rotation with a boost; otherwise the sign of tr(X^2) separates elliptic
    (periodic) from hyperbolic (boost-like), and both invariants vanish
    exactly on the nilpotent elements.  Only whether ``pfaffian`` vanishes
    matters, and the matrix ``x`` is read only to tell Zero from Parabolic.
    """
    if pfaffian != 0:
        return OneParamType.MIXED
    if trace_sq < 0:
        return OneParamType.ELLIPTIC
    if trace_sq > 0:
        return OneParamType.HYPERBOLIC
    return OneParamType.ZERO if mat_is_zero(x) else OneParamType.PARABOLIC


def one_param_type(x) -> OneParamType:
    """Conjugation-invariant type of the one-parameter group exp(t X).

    Decided by :func:`type_from_invariants`, reading both invariants off the
    characteristic polynomial of the Lorentz-algebra matrix X: its
    coefficients are c2 = -tr(X^2)/2 and c4 = det X = -Pf(eta X)^2.
    """
    _, _, c2, _, c4 = char_poly(x)
    return type_from_invariants(-2 * c2, c4, x)


def _trace_product(x, y):
    """tr(XY) for Lorentz-algebra matrices.

    eta X and eta Y are skew, so the trace is a signed sum over the entries
    above the diagonal: minus for the rotation entries, plus for the boosts.
    """
    return 2 * (x[0][3] * y[0][3] + x[1][3] * y[1][3] + x[2][3] * y[2][3]
                - x[0][1] * y[0][1] - x[0][2] * y[0][2] - x[1][2] * y[1][2])


def _pfaffian_polar(x, y):
    """Pf(eta(X+Y)) - Pf(eta X) - Pf(eta Y) for Lorentz-algebra matrices.

    Pf(eta X) = x01 x23 - x02 x13 + x03 x12 reads only rows 0-2, which eta X
    shares with X.
    """
    return (x[0][1] * y[2][3] + y[0][1] * x[2][3]
            - x[0][2] * y[1][3] - y[0][2] * x[1][3]
            + x[0][3] * y[1][2] + y[0][3] * x[1][2])


def lorentz_invariants(x):
    """(tr(X^2), Pf(eta X)) of a Lorentz-algebra matrix, exactly: both are
    quadratic, so they are read off the integer matrix d*X and divided by d^2."""
    m, d = integral(x)
    return Fraction(_trace_product(m, m), d * d), Fraction(_pfaffian_polar(m, m), 2 * d * d)


def invariant_forms(linears):
    """Gram matrices of the two Lorentz invariants on a list of matrices.

    Returns (T, P) with T_ij = tr(X_i X_j) and P_ij the polar form of the
    Pfaffian, so that X = sum c_i X_i has tr(X^2) = c^T T c and
    2 Pf(eta X) = c^T P c.
    """
    trace_form = [[_trace_product(a, b) for b in linears] for a in linears]
    pf_form = [[_pfaffian_polar(a, b) for b in linears] for a in linears]
    return trace_form, pf_form


class SubalgebraInvariants(NamedTuple):
    """Cheap conjugation-invariant profile used to pre-filter catalog matches:
    the translation ideal's causal class and the projection's sorted types."""

    translation_causal: CausalClass
    one_param_profile: tuple

    def describe(self) -> str:
        """The profile with the dimensions it implies: the ideal's n+ + n- + n0,
        the projection's one type per dimension, and their sum."""
        c, types = self.translation_causal, self.one_param_profile
        t = c.n_plus + c.n_minus + c.n_zero
        return (f"dim {t + len(types)}; translations {t} ({c}); "
                f"linear {len(types)} [{','.join(x.value for x in types) or '-'}]")


def invariants(h: Subalgebra) -> SubalgebraInvariants:
    linear, (ideal, _), _ = h.parts
    profile = tuple(sorted((one_param_type(x) for _, x in linear), key=lambda t: t.value))
    return SubalgebraInvariants(causal_type(ideal), profile)

"""Subalgebra bookkeeping: closure, translation/linear splitting, the
translation-conjugation normal form, one-parameter type classification, and
the invariant profile used for catalog matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .algebra import (
    AlgebraElement,
    bracket,
    coords10,
    linear_from_coords,
)
from .linalg import (
    CausalClass,
    DependentBasisError,
    causal_type,
    char_poly,
    echelon_basis,
    mat_is_zero,
    matmul,
    matvec,
    rank_of,
    rref,
    span_contains,
    vadd,
)


class OneParamType(Enum):
    ZERO = "Zero"
    ELLIPTIC = "Elliptic"
    HYPERBOLIC = "Hyperbolic"
    PARABOLIC = "Parabolic"
    MIXED = "Mixed"


@dataclass(frozen=True, eq=False)
class Subalgebra:
    """A closed subalgebra: independent basis plus cached structure constants.

    ``structure[(i, j)]`` holds the coordinates of [basis_i, basis_j] in the
    basis, for i < j.  Construct through :func:`closure_check` only.
    """

    basis: tuple
    structure: dict

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span_rows(self):
        return echelon_basis([coords10(b) for b in self.basis])

    def contains(self, elt: AlgebraElement) -> bool:
        return span_contains([coords10(b) for b in self.basis], coords10(elt)) is not None


@dataclass(frozen=True)
class NotClosed:
    """Failed closure verdict with the witness bracket."""

    i: int
    j: int
    witness: AlgebraElement

    def describe(self) -> str:
        return f"[basis {self.i}, basis {self.j}] leaves the span"


def closure_check(basis):
    """Decide closure of the span of ``basis``; exact, witness on failure.

    Returns a :class:`Subalgebra` (with structure constants cached) or a
    :class:`NotClosed` verdict.  Raises DependentBasisError for dependent
    input, since structure constants would be ill-defined.
    """
    basis = tuple(basis)
    coords = [coords10(b) for b in basis]
    if coords and rank_of(coords) != len(basis):
        raise DependentBasisError("basis of a subalgebra must be independent")
    structure = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            br = bracket(basis[i], basis[j])
            coeffs = span_contains(coords, coords10(br))
            if coeffs is None:
                return NotClosed(i=i, j=j, witness=br)
            structure[(i, j)] = coeffs
    return Subalgebra(basis=basis, structure=structure)


def require_closed(basis) -> Subalgebra:
    verdict = closure_check(basis)
    if isinstance(verdict, NotClosed):
        raise ValueError(f"not a subalgebra: {verdict.describe()}")
    return verdict


def split_parts(h: Subalgebra):
    """(translation basis, projection basis): h's intersection with the
    translations and the image of its linear-part projection, both echelonized.
    """
    rows = h.span_rows()
    translations = [row[6:] for row in rows if all(c == 0 for c in row[:6])]
    projection = [linear_from_coords(row[:6]) for row in rows
                  if any(c != 0 for c in row[:6])]
    return translations, projection


def normalize_translations(h: Subalgebra):
    """Solve the translation-conjugation normal form.

    Finds the vector p such that conjugating by the translation -p (i.e.
    applying Ad of (I, -p), which sends (X, x) to (X, x + Xp)) annihilates the
    translation decoration of every basis element with a nonzero linear part.
    When full annihilation is impossible, the consistent part of the
    echelonized system is solved with free variables at zero, which leaves
    deterministic residual decorations — exactly the surviving parameters of
    the decorated catalog families.

    Pivots are restricted to the coefficient columns: a row that reduces to
    (0 0 0 0 | c) is an inconsistent direction and is simply left out, so it
    can never eliminate into — and wipe out — the solved part.  The pivot
    choice depends only on the coefficient rows, which translation
    conjugation does not touch, so the surviving residuals are canonical.

    Returns (p, normalized subalgebra).
    """
    rows = []
    for elt in h.basis:
        if mat_is_zero(elt.linear):
            continue  # a pure translation is its own decoration; nothing to solve
        for m in range(4):
            if any(x != 0 for x in elt.linear[m]) or elt.trans[m] != 0:
                rows.append((*elt.linear[m], -elt.trans[m]))
    p = [Fraction(0)] * 4
    reduced, pivots = rref(rows, pivot_limit=4)
    for row, col in zip(reduced, pivots):
        p[col] = row[4]
    p = tuple(p)
    new_basis = tuple(
        AlgebraElement(elt.linear, vadd(elt.trans, matvec(elt.linear, p)))
        for elt in h.basis
    )
    return p, require_closed(new_basis)


def one_param_type(x) -> OneParamType:
    """Conjugation-invariant type of the one-parameter group exp(t X).

    Exact spectral trichotomy for Lorentz-algebra matrices: Parabolic iff
    nilpotent nonzero; otherwise X^3 = g X for a unique rational g, with
    g < 0 elliptic (periodic), g > 0 hyperbolic (boost-like); anything that
    fits no such relation mixes a rotation with a boost.
    """
    if mat_is_zero(x):
        return OneParamType.ZERO
    cp = char_poly(x)
    if all(c == 0 for c in cp[1:]):
        return OneParamType.PARABOLIC
    x3 = matmul(x, matmul(x, x))
    pivot = next((i, j) for i in range(4) for j in range(4) if x[i][j] != 0)
    gamma = x3[pivot[0]][pivot[1]] / x[pivot[0]][pivot[1]]
    if all(x3[i][j] == gamma * x[i][j] for i in range(4) for j in range(4)):
        if gamma < 0:
            return OneParamType.ELLIPTIC
        if gamma > 0:
            return OneParamType.HYPERBOLIC
    return OneParamType.MIXED


@dataclass(frozen=True)
class SubalgebraInvariants:
    """Cheap conjugation-invariant profile used to pre-filter catalog matches."""

    dim: int
    translation_dim: int
    translation_causal: CausalClass
    projection_dim: int
    one_param_profile: tuple

    def describe(self) -> str:
        profile = ",".join(t.value for t in self.one_param_profile) or "-"
        return (f"dim {self.dim}; translations {self.translation_dim} "
                f"({self.translation_causal}); linear {self.projection_dim} [{profile}]")


def invariants(h: Subalgebra) -> SubalgebraInvariants:
    translations, projection = split_parts(h)
    profile = tuple(sorted((one_param_type(x) for x in projection), key=lambda t: t.value))
    return SubalgebraInvariants(
        dim=h.dim,
        translation_dim=len(translations),
        translation_causal=causal_type(translations),
        projection_dim=len(projection),
        one_param_profile=profile,
    )

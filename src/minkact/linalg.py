"""Exact rational linear algebra over Minkowski 4-space.

Nothing in this module makes a float.  Vectors are 4-tuples of
``fractions.Fraction``, matrices are tuples of row tuples (the products and
sums serve float tuples alike).  Elimination and signatures run on Python
ints: :func:`integral` clears the denominators and :func:`integer_rref` is
the one Gauss-Jordan kernel, under :func:`rref` and every solve built on it;
a reader of a rank alone uses the forward-only :func:`integer_rank`.  A span
is its integer :func:`echelon_form`, which :func:`reduce_form` reduces modulo.
The signature convention is (+, +, +, -) with ``eta`` the diagonal form matrix.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from operator import add, mul, sub
from typing import NamedTuple, Sequence


class DependentBasisError(ValueError):
    """Raised when an operation requires linearly independent input vectors."""


class DimensionMismatchError(ValueError):
    """Raised when matrix/vector shapes are inconsistent."""


def frac(x) -> Fraction:
    """Coerce ints and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def vec4(a, b, c, d):
    return (frac(a), frac(b), frac(c), frac(d))


ZERO4 = vec4(0, 0, 0, 0)


def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vscale(c, u):
    c = frac(c)
    return tuple(c * a for a in u)


def mat(rows) -> tuple:
    """Build an immutable exact matrix from an iterable of rows."""
    out = tuple(tuple(frac(x) for x in row) for row in rows)
    width = len(out[0]) if out else 0
    if any(len(row) != width for row in out):
        raise DimensionMismatchError("ragged rows")
    return out


IDENTITY4 = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
ETA = mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
ZERO_MAT4 = mat([[0] * 4 for _ in range(4)])


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = frac(c)
    return tuple(tuple(c * x for x in row) for row in a)


def matmul(a, b):
    if len(a[0]) != len(b):
        raise DimensionMismatchError("inner dimensions differ")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def matvec(a, v):
    """a v, built as a list (faster than a generator); no rows give ()."""
    if a and len(a[0]) != len(v):
        raise DimensionMismatchError("matrix width != vector length")
    return tuple([sum(map(mul, row, v)) for row in a])


def transpose(a):
    return tuple(zip(*a))


def mat_is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mink_inner(u, v) -> Fraction:
    """Minkowski inner product u1*v1 + u2*v2 + u3*v3 - u4*v4."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] - u[3] * v[3]


# ---------------------------------------------------------------------------
# Row reduction and linear solving
# ---------------------------------------------------------------------------


def rref(rows, pivot_limit=None):
    """Reduced row echelon form with leftmost-column-first pivoting.

    Returns ``(reduced_rows, pivot_columns)``, as many rows as the input, which
    is not mutated.  The leftmost-pivot rule keeps kernel bases reproducible
    across runs.  The denominators are cleared and :func:`integer_rref` does
    the elimination; each pivot row is then divided by its pivot, so the pivot
    rows are the unique reduced echelon form.  The remaining rows are zero.

    With ``pivot_limit`` set, pivots are sought only in the columns before it;
    the columns from there on (an augmented right-hand side) are carried along
    by the row operations but never pivoted on.  A row without a pivot is then
    zero before the limit and fixed only up to a nonzero factor after it.
    """
    rows = list(rows)
    width = len(rows[0]) if rows else 0
    ints, pivots = integer_rref(integral(rows)[0], pivot_limit)
    reduced = [tuple(Fraction(x, row[c]) for x in row) for row, c in zip(ints, pivots)]
    reduced += [tuple(map(Fraction, row)) for row in ints[len(pivots):]]
    reduced += [(Fraction(0),) * width] * (len(rows) - len(reduced))
    return reduced, pivots


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else list(row)


def integer_rref(rows, pivot_limit=None):
    """Fraction-free Gauss-Jordan on integer rows, pivoting as :func:`rref` does.

    Returns ``(rows, pivot_columns)`` with only the nonzero rows, each at
    content one (its entries' gcd is 1), the pivot rows first.  Pivot row i is
    a nonzero multiple of row i of ``rref(rows)``, so dividing it by its pivot
    entry gives that row.  ``pivot_limit`` is as in :func:`rref`.
    """
    work = [_primitive(row) for row in rows]
    width = len(work[0]) if work else 0
    pivots = []
    for c in range(width if pivot_limit is None else min(width, pivot_limit)):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        d, prow = work[r][c], work[r]
        for i, row in enumerate(work):
            if i != r and row[c]:
                work[i] = _primitive([d * x - row[c] * y for x, y in zip(row, prow)])
        pivots.append(c)
        if len(pivots) == len(work):
            break
    return [tuple(row) for row in work if any(row)], pivots


def integer_rank(rows) -> int:
    """Rank of integer rows by forward-only fraction-free elimination (Bareiss,
    Math. Comp. 22 (1968) 565-578): a pivot row with first entry d leaves, with
    its column, and each other row becomes (d*row - row[0]*pivot) / (previous
    pivot), an exact division.  Zero rows and columns are dropped as they arise."""
    work = [row for row in rows if any(row)]
    rank, prev = 0, 1
    while work:
        prow = next((row for row in work if row[0]), None)
        if prow is None:
            work = [row[1:] for row in work]
            continue
        work.remove(prow)
        d, tail = prow[0], prow[1:]
        work = [[(d * x - row[0] * y) // prev for x, y in zip(row[1:], tail)] for row in work]
        work = [row for row in work if any(row)]
        prev, rank = d, rank + 1
    return rank


def integral(rows):
    """``rows`` times the least common denominator d > 0 of their entries.

    Returns ``(int_rows, d)``: the scaled rows as lists of ints, with the same
    signs, zeros and row space, for exact work without Fraction arithmetic.
    """
    d = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def rank_of(rows) -> int:
    return integer_rank(integral(list(rows))[0])


def echelon_form(vectors):
    """(rows, d): the reduced echelon rows of the span of ``vectors`` as integer
    rows over one denominator d > 0.  Every pivot is d and the gcd of d and all
    the entries is 1, so equal spans give equal pairs: pivot row i of
    :func:`integer_rref`, at content one, is its pivot p_i times reduced row i
    in lowest terms, so d is the lcm of the p_i and row i is scaled by d / p_i."""
    ints, pivots = integer_rref(integral(list(vectors))[0])
    d = math.lcm(*(row[c] for row, c in zip(ints, pivots)))
    return tuple(tuple(x * (d // row[c]) for x in row) for row, c in zip(ints, pivots)), d


def reduce_form(form, v):
    """d times the remainder of ``v`` modulo the span of ``form`` = (rows, d):
    the rows are d R_i for reduced echelon rows R_i, so d (v - sum v[c_i] R_i),
    c_i the pivot columns, is d v - sum v[c_i] row_i.  It is linear in ``v``,
    integer for integer ``v``, and zero exactly when ``v`` lies in the span."""
    rows, d = form
    out = [d * x for x in v]
    for row in rows:
        f = v[next(i for i, x in enumerate(row) if x)]
        if f:
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def echelon_basis(vectors):
    """The rows of the :func:`echelon_form` of ``vectors`` as Fractions."""
    rows, d = echelon_form(vectors)
    return [tuple(Fraction(x, d) for x in row) for row in rows]


def spans_equal(vs, ws) -> bool:
    return echelon_form(vs) == echelon_form(ws)


class LinearSolution(NamedTuple):
    """Exact affine solution set of A x = b.

    ``particular`` is None when the system is inconsistent; otherwise
    particular + span(kernel) is the full solution set.
    """

    particular: tuple | None
    kernel: tuple
    rank: int


def solve_linear(a, b) -> LinearSolution:
    """Solve A x = b exactly; also used as the kernel/rank workhorse.

    One :func:`integer_rref` of [A | b], cleared of denominators, with pivots
    only in A: the system is consistent when no row is left without a pivot
    (such a row is zero in A and nonzero in b).  The particular solution reads
    the entries off the pivot rows.  Free column f gives one kernel vector:
    v_f is L, the lcm of the pivots, and pivot row d v_p + c v_f = 0 gives
    v_p; made primitive, it is the integer multiple, positive at f, of the
    vector with v_f = 1.  Its entries are integer-valued Fractions, so that
    callers dividing by them stay exact.
    """
    ncols = len(a[0]) if a else 0
    if len(b) != len(a):
        raise DimensionMismatchError(f"A has {len(a)} rows but b has {len(b)} entries")
    rows, pivots = integer_rref(integral([[*row, bv] for row, bv in zip(a, b)])[0],
                                pivot_limit=ncols)
    lcm = math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = lcm
        for row, p in zip(rows, pivots):
            v[p] = -row[f] * (lcm // row[p])
        kernel.append(tuple(map(Fraction, _primitive(v))))
    if len(rows) > len(pivots):
        return LinearSolution(particular=None, kernel=tuple(kernel), rank=len(pivots))
    particular = [Fraction(0)] * ncols
    for row, p in zip(rows, pivots):
        particular[p] = Fraction(row[ncols], row[p])
    return LinearSolution(particular=tuple(particular), kernel=tuple(kernel), rank=len(pivots))


def kernel_of(a):
    """Basis of the null space of A, one primitive integer vector (as
    Fractions) per free column, positive there, in left-to-right order."""
    return solve_linear(a, [0] * len(a)).kernel


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier, exact)
# ---------------------------------------------------------------------------


def char_poly(m):
    """Coefficients (1, c1, ..., cn) of det(lambda*I - M) for a square M, by
    Faddeev-LeVerrier on the integer matrix d*M, whose coefficients d^k c_k
    are integers: every step stays integral and each division is exact."""
    a, d = integral(m)
    coeffs = [Fraction(1)]
    ak = a
    for k in range(1, len(a) + 1):
        ck = -trace(ak) // k
        coeffs.append(Fraction(ck, d ** k))
        if k < len(a):
            ak = matmul(a, [[x + ck * (i == j) for j, x in enumerate(row)]
                            for i, row in enumerate(ak)])
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Causal classification (Sylvester signature, no square roots)
# ---------------------------------------------------------------------------


class CausalKind(Enum):
    SPACELIKE = "Spacelike"
    TIMELIKE = "Timelike"
    LIGHTLIKE = "Lightlike"
    LORENTZIAN = "Lorentzian"
    DEGENERATE = "Degenerate"


class CausalClass(NamedTuple):
    kind: CausalKind
    n_plus: int
    n_minus: int
    n_zero: int

    def __str__(self):
        return f"{self.kind.value} ({self.n_plus},{self.n_minus},{self.n_zero})"


def sylvester_signature(gram):
    """Signature (n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Symmetric congruence reduction without division: with pivot d = a_ii,
    row_j <- d*row_j - a_ji*row_i and then the same on the columns, which keeps
    integer input in integers (never eigenvalues).  A zero diagonal with a
    nonzero off-diagonal entry is repaired by the usual row+column addition
    before pivoting.
    """
    n = len(gram)
    work = [list(row) for row in gram]
    for i in range(n):
        if work[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if work[j][j] != 0), None)
            if swap is not None:
                work[i], work[swap] = work[swap], work[i]
                for row in work:
                    row[i], row[swap] = row[swap], row[i]
            else:
                j = next((j for j in range(i + 1, n) if work[i][j] != 0), None)
                if j is not None:
                    for c in range(n):
                        work[i][c] += work[j][c]
                    for r in range(n):
                        work[r][i] += work[r][j]
        d = work[i][i]
        if d == 0:
            continue
        for j in range(i + 1, n):
            if work[j][i] != 0:
                f = work[j][i]
                work[j] = [d * x - f * y for x, y in zip(work[j], work[i])]
                for row in work:
                    row[j] = d * row[j] - f * row[i]
    n_plus = sum(1 for i in range(n) if work[i][i] > 0)
    n_minus = sum(1 for i in range(n) if work[i][i] < 0)
    return n_plus, n_minus, n - n_plus - n_minus


def classify_signature(n_plus, n_minus, n_zero) -> CausalClass:
    dim = n_plus + n_minus + n_zero
    if n_minus > 1:
        raise ValueError(f"impossible signature in (3,1): ({n_plus},{n_minus},{n_zero})")
    if n_minus == 1:
        if n_zero:
            raise ValueError("a subspace cannot carry both a radical and a timelike direction")
        kind = CausalKind.TIMELIKE if dim == 1 else CausalKind.LORENTZIAN
    elif n_zero == 1:
        kind = CausalKind.LIGHTLIKE if dim == 1 else CausalKind.DEGENERATE
    elif n_zero > 1:
        raise ValueError("radical dimension exceeds 1 in Lorentz signature")
    else:
        kind = CausalKind.SPACELIKE  # includes the trivial subspace (0,0,0)
    return CausalClass(kind, n_plus, n_minus, n_zero)


def causal_class(int_rows) -> CausalClass:
    """Causal class of the span of independent integer rows, from their Gram."""
    gram = [[mink_inner(u, v) for v in int_rows] for u in int_rows]
    return classify_signature(*sylvester_signature(gram))


def causal_type(basis: Sequence) -> CausalClass:
    """Causal class of the subspace spanned by an independent basis.

    The basis is scaled to integers by a positive factor first, which scales
    the Gram by its square and so keeps the signature.
    """
    rows, _ = integral(list(basis))
    if integer_rank(rows) != len(rows):
        raise DependentBasisError("causal_type requires an independent basis")
    return causal_class(rows)

"""The classification catalog for cohomogeneity-one isometry groups of
Minkowski 4-space, with machine-checkable evidence per entry.

Each record carries the generators (possibly decorated by parameters), the
expected conjugation invariants, explicit witness points for every
non-generic orbit stratum, the properness verdict together with its
certificate mechanism, and — for the proper families — the orbit-space
evidence (global invariant function, transversal, singular-orbit data).
Each fact is stated once: the family is the id's prefix, the parameter names
are the defaults' keys, the cohomogeneity is 1 unless a record says
otherwise, and the expected strata are the generic dimension plus those of
the witness points.  `verify_entry` replays all of it; `match_catalog`
re-identifies an arbitrary closed subalgebra against the table: on the
span's translation normal form, one exact linear solve fits a record's
parameters, which every record's generators depend on affinely.

Six `Excluded:*` records document the near-miss groups whose orbit
stratification disqualifies them (wrong maximal dimension, or homogeneous
off a null hyperplane); keeping them in the catalog makes `classify` name
them instead of merely failing to match.

Three entries carry `erratum:*` diagnostics: informational checks that
re-verify, from scratch, corrected analyses of defects found in the source
table (a degenerate-regime claim that is actually Lorentzian, a degenerate
locus with the wrong sign, and a decorated family that is not closed —
whose closed members are homogeneous off a hyperplane).  They pass when the
corrected analysis is confirmed.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .algebra import coords10, fundamental_field, standard_generator
from .linalg import (
    CausalClass,
    CausalKind,
    echelon_basis,
    mink_inner,
    reduce_mod,
    solve_linear,
    vec4,
)
from .orbits import (
    EvidenceFailedError,
    ExpInvariant,
    NotInvariantError,
    OrbitSpaceKind,
    OrbitSpaceSpec,
    Poly,
    cohomogeneity,
    field_polys,
    orbit_dimension,
    orbit_space_report,
)
from .properness import (
    WitnessFailedError,
    check_witness,
    clock_certificate,
    combination,
    fixed_point_nonproper_certificate,
    fixed_point_witness,
    nilpotent_pair_witness,
)
from .subalgebra import (
    NotClosed,
    OneParamType,
    Subalgebra,
    SubalgebraInvariants,
    closure_check,
    recenter,
)

YK1 = standard_generator("Yk1")
YK2 = standard_generator("Yk2")
YK3 = standard_generator("Yk3")
YA = standard_generator("Ya")
YN1 = standard_generator("Yn1")
YN2 = standard_generator("Yn2")
T1 = standard_generator("e1")
T2 = standard_generator("e2")
T3 = standard_generator("e3")
T4 = standard_generator("e4")
TL = T3 - T4  # translation along the null line e3 - e4

_E = OneParamType.ELLIPTIC
_H = OneParamType.HYPERBOLIC
_M = OneParamType.MIXED
_P = OneParamType.PARABOLIC


def _sp(n):
    return CausalClass(CausalKind.SPACELIKE, n, 0, 0)


def _lor(d):
    return CausalClass(CausalKind.LORENTZIAN, d - 1, 1, 0)


def _deg(d):
    return CausalClass(CausalKind.DEGENERATE, d - 1, 0, 1)


_TIME1 = CausalClass(CausalKind.TIMELIKE, 0, 1, 0)
_LIGHT1 = CausalClass(CausalKind.LIGHTLIKE, 0, 0, 1)


def _inv(dim, tdim, tcausal, pdim, profile):
    return SubalgebraInvariants(dim, tdim, tcausal, pdim, tuple(profile))


# ---------------------------------------------------------------------------
# Catalog record type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    entry_id: str  # "<family>:<name>"
    summary: str
    build: object  # params dict -> basis tuple
    admissible: object  # params dict -> bool
    defaults: tuple  # instantiations the verifier exercises
    expected_invariants: SubalgebraInvariants
    expected_cohomogeneity: int
    strata_witnesses: object  # params -> ((point, dim), ...)
    proper: bool
    orbit_space: object | None = None  # params -> OrbitSpaceSpec
    principal_causal: CausalKind | None = None
    degenerate_locus: object | None = None  # point -> bool
    rank_identity: object | None = None  # params -> (coeff polys, note)
    errata: tuple = ()
    # params -> WitnessSequence: one fixed-point-free escaping sequence for the
    # whole family, used even where a rational fixed point happens to exist
    escape_witness: object | None = None

    @property
    def family(self) -> str:
        """The id's prefix: T1..T4 for classified groups, Excluded for near misses."""
        return self.entry_id.split(":", 1)[0]

    @property
    def in_table(self) -> bool:
        return self.family != "Excluded"

    @property
    def params(self) -> tuple:
        """Parameter names, in the order every default lists them."""
        return tuple(self.defaults[0])

    @property
    def recovery(self):
        """(kind, (params, basis) -> kwargs) for parameter_recovery_check on a
        proper record: the one recovery map, read off the clock certificate."""
        return ("clock", lambda p, basis: {"basis": basis}) if self.proper else None

    def expected_strata(self, params):
        """Orbit dimensions, descending: the generic 4 - cohomogeneity and the
        dimension of every declared witness point."""
        dims = {4 - self.expected_cohomogeneity}
        dims.update(dim for _, dim in self.strata_witnesses(params))
        return tuple(sorted(dims, reverse=True))


def _no_params(_):
    return True


_POLY_F_SO2 = Poly.var(0) * Poly.var(0) + Poly.var(1) * Poly.var(1)
_POLY_F_SO3 = _POLY_F_SO2 + Poly.var(2) * Poly.var(2)
_SIGMA = Poly.var(2) + Poly.var(3)  # p3 + p4, the null level


def _line_spec(invariant, transversal):
    return OrbitSpaceSpec(
        kind=OrbitSpaceKind.LINE,
        invariant=invariant,
        transversal=tuple(tuple(map(Fraction, p)) for p in transversal),
    )


def _halfline_spec(invariant, transversal, singular, witnesses):
    return OrbitSpaceSpec(
        kind=OrbitSpaceKind.HALFLINE,
        invariant=invariant,
        transversal=tuple(tuple(map(Fraction, p)) for p in transversal),
        singular=singular,
        singular_witnesses=tuple(tuple(map(Fraction, p)) for p in witnesses),
    )


def _perfect_square_root(x: Fraction):
    """Exact rational square root, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _screw_witnesses(params):
    """Low-dimensional stratum of the screw family: the fixed circle-substitute
    (0,0,s,0) with s(s+mu) = lam^2 exists over the rationals iff mu^2+4 lam^2
    is a perfect square."""
    lam, mu = params["lam"], params["mu"]
    root = _perfect_square_root(mu * mu + 4 * lam * lam)
    if root is None:
        return ()
    s = (-mu + root) / 2
    return (((0, 0, s, 0), 2),)


def _k1n_identity(_params):
    # order matches basis (Yk1, Yn1, Yn2)
    coeffs = (_SIGMA.scale(-1), Poly.var(1), Poly.var(0).scale(-1))
    return coeffs, "p2*V[Yn1] - p1*V[Yn2] - (p3+p4)*V[Yk1] = 0 pointwise"


def _so21_identity(_params):
    # order matches basis (Yk3, Ya, Yn2)
    coeffs = (_SIGMA.scale(-1), Poly.var(1).scale(-1), Poly.var(2))
    return coeffs, "-(p3+p4)*V[Yk3] - p2*V[Ya] + p3*V[Yn2] = 0 pointwise"


def _entry(**kw):
    kw.setdefault("admissible", _no_params)
    kw.setdefault("defaults", ({},))
    kw.setdefault("expected_cohomogeneity", 1)
    kw.setdefault("strata_witnesses", lambda _p: ())
    return CatalogEntry(**kw)


def _const_witnesses(*pairs):
    return lambda _p: tuple(pairs)


def builtin_catalog():
    """All 27 records: 21 classified group entries (19 printed families, with
    both degenerate-decoration families split into their proper and nonproper
    parameter regimes) plus 6 excluded near misses."""
    entries = []
    add = entries.append

    # ----- three translation groups -------------------------------------
    add(_entry(
        entry_id="T1:R3",
        summary="translations of a spacelike 3-plane",
        build=lambda p: (T1, T2, T3),
        expected_invariants=_inv(3, 3, _sp(3), 0, ()),
        proper=True,
        orbit_space=lambda p: _line_spec(
            Poly.var(3), [(0, 0, 0, s) for s in (-2, -1, 0, 1, 2)]),
        principal_causal=CausalKind.SPACELIKE,
    ))
    add(_entry(
        entry_id="T1:R21",
        summary="translations of a timelike 3-plane",
        build=lambda p: (T2, T3, T4),
        expected_invariants=_inv(3, 3, _lor(3), 0, ()),
        proper=True,
        orbit_space=lambda p: _line_spec(
            Poly.var(0), [(s, 0, 0, 0) for s in (-2, -1, 0, 1, 2)]),
        principal_causal=CausalKind.LORENTZIAN,
    ))
    add(_entry(
        entry_id="T1:W3",
        summary="translations of the degenerate 3-plane x3+x4=0",
        build=lambda p: (T1, T2, TL),
        expected_invariants=_inv(3, 3, _deg(3), 0, ()),
        proper=True,
        orbit_space=lambda p: _line_spec(
            _SIGMA, [(0, 0, s, s) for s in (-2, -1, 0, 1, 2)]),
        principal_causal=CausalKind.DEGENERATE,
    ))

    # ----- one linear generator plus a translation plane -----------------
    add(_entry(
        entry_id="T2:SO11xR2",
        summary="boost of the (e3,e4) plane times spacelike translations",
        build=lambda p: (YA, T1, T2),
        expected_invariants=_inv(3, 2, _sp(2), 1, (_H,)),
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 2)),
        proper=False,
    ))
    add(_entry(
        entry_id="T2:SO2xR11",
        summary="rotation of the (e1,e2) plane times timelike-plane translations",
        build=lambda p: (YK1, T3, T4),
        expected_invariants=_inv(3, 2, _lor(2), 1, (_E,)),
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 2), ((0, 0, 3, 5), 2)),
        proper=True,
        orbit_space=lambda p: _halfline_spec(
            _POLY_F_SO2, [(s, 0, 0, 0) for s in (0, 1, 2)],
            (2, CausalKind.LORENTZIAN), [(0, 0, 0, 0), (0, 0, 3, 5)]),
        principal_causal=CausalKind.LORENTZIAN,
    ))
    add(_entry(
        entry_id="T2:Ya+le1-W2",
        summary="boost with spacelike drift, extended by the degenerate plane W2",
        build=lambda p: (YA + T1.scaled(p["lam"]), T2, TL),
        admissible=lambda p: p["lam"] != 0,
        defaults=({"lam": Fraction(1)}, {"lam": Fraction(-2)}),
        expected_invariants=_inv(3, 2, _deg(2), 1, (_H,)),
        proper=True,
        orbit_space=lambda p: _line_spec(
            ExpInvariant(level_cov=(0, 0, 1, 1), exp_cov=(1, 0, 0, 0),
                         scale=p["lam"]),
            [(0, 0, s, s) for s in (-2, -1, 0, 1, 2)]),
        principal_causal=CausalKind.LORENTZIAN,
        degenerate_locus=lambda pt: pt[2] + pt[3] == 0,
        errata=("erratum:degenerate-locus",),
    ))
    add(_entry(
        entry_id="T2:Ya-W2",
        summary="pure boost extended by the degenerate plane W2 (drift 0)",
        build=lambda p: (YA, T2, TL),
        expected_invariants=_inv(3, 2, _deg(2), 1, (_H,)),
        strata_witnesses=_const_witnesses(((0, 0, 1, -1), 2), ((0, 0, 0, 0), 2)),
        proper=False,
    ))
    add(_entry(
        entry_id="T2:Yn1+me4-W2",
        summary="null rotation with timelike drift, extended by W2",
        build=lambda p: (YN1 + T4.scaled(p["mu"]), T2, TL),
        admissible=lambda p: p["mu"] != 0,
        defaults=({"mu": Fraction(3)},),
        expected_invariants=_inv(3, 2, _deg(2), 1, (_P,)),
        proper=True,
        orbit_space=lambda p: _line_spec(
            Poly.var(0).scale(2 * p["mu"]) - _SIGMA * _SIGMA,
            [(s, 0, 0, 0) for s in (-2, -1, 0, 1, 2)]),
        principal_causal=CausalKind.LORENTZIAN,
        errata=("erratum:deg-regime-lorentzian",),
    ))
    add(_entry(
        entry_id="T2:Yn1-W2",
        summary="pure null rotation extended by W2 (drift 0)",
        build=lambda p: (YN1, T2, TL),
        expected_invariants=_inv(3, 2, _deg(2), 1, (_P,)),
        strata_witnesses=_const_witnesses(((1, 0, 0, 0), 2), ((0, 0, 0, 0), 2)),
        proper=False,
    ))

    # ----- larger linear parts -------------------------------------------
    add(_entry(
        entry_id="T3:SO21xRe1",
        summary="Lorentz group of the (e2,e3,e4) summand times the e1 line",
        build=lambda p: (YK3, YA, YN2, T1),
        expected_invariants=_inv(4, 1, _sp(1), 3, (_E, _H, _P)),
        strata_witnesses=_const_witnesses(((1, 0, 0, 0), 1)),
        proper=False,
    ))
    add(_entry(
        entry_id="T3:AN2xRe1",
        summary="solvable boost+null-rotation plane group times the e1 line",
        build=lambda p: (YA, YN2, T1),
        expected_invariants=_inv(3, 1, _sp(1), 2, (_H, _P)),
        strata_witnesses=_const_witnesses(((0, 1, 1, -1), 2), ((5, 0, 0, 0), 1)),
        proper=False,
    ))
    add(_entry(
        entry_id="T3:SO3xRe4",
        summary="spatial rotations times time translations",
        build=lambda p: (YK1, YK2, YK3, T4),
        expected_invariants=_inv(4, 1, _TIME1, 3, (_E, _E, _E)),
        strata_witnesses=_const_witnesses(((0, 0, 0, 3), 1)),
        proper=True,
        orbit_space=lambda p: _halfline_spec(
            _POLY_F_SO3, [(s, 0, 0, 0) for s in (0, 1, 2)],
            (1, CausalKind.TIMELIKE), [(0, 0, 0, 3), (0, 0, 0, -1)]),
        principal_causal=CausalKind.LORENTZIAN,
    ))
    add(_entry(
        entry_id="T3:K1A-l",
        summary="rotation+boost pair extended by the null line",
        build=lambda p: (YK1, YA, TL),
        expected_invariants=_inv(3, 1, _LIGHT1, 2, (_E, _H)),
        strata_witnesses=_const_witnesses(
            ((0, 0, 1, 0), 2), ((1, 1, 1, -1), 2), ((0, 0, 1, -1), 1)),
        proper=False,
    ))
    add(_entry(
        entry_id="T3:Ya+le2-N1-l",
        summary="boost with spacelike drift plus a null rotation, over the null line",
        build=lambda p: (YA + T2.scaled(p["lam"]), YN1, TL),
        defaults=({"lam": Fraction(1)}, {"lam": Fraction(-2)}),
        expected_invariants=_inv(3, 1, _LIGHT1, 2, (_H, _P)),
        strata_witnesses=_const_witnesses(((1, 0, 1, -1), 2)),
        proper=False,
    ))
    add(_entry(
        entry_id="T3:nilpotent-pair",
        summary="two decorated null rotations over the null line (screw family)",
        build=lambda p: (YN1 + T2.scaled(p["lam"]),
                         YN2 + T1.scaled(p["lam"]) + T2.scaled(p["mu"]), TL),
        admissible=lambda p: p["lam"] != 0,
        defaults=({"lam": Fraction(1), "mu": Fraction(0)},
                  {"lam": Fraction(1), "mu": Fraction(3)},
                  {"lam": Fraction(-2), "mu": Fraction(0)},
                  {"lam": Fraction(-2), "mu": Fraction(3)}),
        expected_invariants=_inv(3, 1, _LIGHT1, 2, (_P, _P)),
        strata_witnesses=_screw_witnesses,
        proper=False,
        escape_witness=lambda p: nilpotent_pair_witness(p["lam"], p["mu"]),
    ))
    add(_entry(
        entry_id="T3:K1N-l",
        summary="rotation plus both null rotations, over the null line",
        build=lambda p: (YK1, YN1, YN2, TL),
        expected_invariants=_inv(4, 1, _LIGHT1, 3, (_E, _P, _P)),
        strata_witnesses=_const_witnesses(((1, 2, 1, -1), 2), ((0, 0, 1, -1), 1)),
        proper=False,
    ))
    add(_entry(
        entry_id="T3:N-aK1bA-l",
        summary="both null rotations plus a rotation/boost mixture, over the null line",
        build=lambda p: (YN1, YN2, YK1.scaled(p["a"]) + YA.scaled(p["b"]), TL),
        admissible=lambda p: p["a"] != 0 and p["b"] != 0,
        defaults=({"a": Fraction(1), "b": Fraction(1)},
                  {"a": Fraction(2), "b": Fraction(-1)}),
        expected_invariants=_inv(4, 1, _LIGHT1, 3, (_M, _P, _P)),
        expected_cohomogeneity=1,  # the table's claim; the verifier computes 0
        strata_witnesses=_const_witnesses(
            ((1, 2, 3, 5), 4), ((1, 2, 1, -1), 2), ((0, 0, 0, 0), 1)),
        proper=False,
        errata=("erratum:printed-lambda-not-closed", "erratum:dim4-off-W3"),
    ))

    # ----- full point-stabilizer subgroups --------------------------------
    add(_entry(
        entry_id="T4:SO31",
        summary="the full connected Lorentz group (origin fixed)",
        build=lambda p: (YK1, YK2, YK3, YA, YN1, YN2),
        expected_invariants=_inv(6, 0, _sp(0), 6, (_E, _E, _E, _H, _P, _P)),
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 0)),
        proper=False,
    ))
    add(_entry(
        entry_id="T4:K1AN",
        summary="rotation, boost, and both null rotations (origin fixed)",
        build=lambda p: (YK1, YA, YN1, YN2),
        expected_invariants=_inv(4, 0, _sp(0), 4, (_E, _H, _P, _P)),
        strata_witnesses=_const_witnesses(((0, 0, 1, -1), 1), ((0, 0, 0, 0), 0)),
        proper=False,
    ))
    add(_entry(
        entry_id="T4:aK1bA-N",
        summary="a rotation/boost mixture with both null rotations (origin fixed)",
        build=lambda p: (YK1.scaled(p["a"]) + YA.scaled(p["b"]), YN1, YN2),
        admissible=lambda p: p["a"] != 0 and p["b"] != 0,
        defaults=({"a": Fraction(1), "b": Fraction(1)},
                  {"a": Fraction(2), "b": Fraction(-1)}),
        expected_invariants=_inv(3, 0, _sp(0), 3, (_M, _P, _P)),
        strata_witnesses=_const_witnesses(((1, 2, 1, -1), 2), ((0, 0, 0, 0), 0)),
        proper=False,
    ))
    add(_entry(
        entry_id="T4:AN",
        summary="boost and both null rotations (origin fixed)",
        build=lambda p: (YA, YN1, YN2),
        expected_invariants=_inv(3, 0, _sp(0), 3, (_H, _P, _P)),
        strata_witnesses=_const_witnesses(((1, 2, 1, -1), 1), ((0, 0, 0, 0), 0)),
        proper=False,
    ))

    # ----- excluded near misses -------------------------------------------
    add(_entry(
        entry_id="Excluded:SO21",
        summary="Lorentz group of a 3-summand alone: orbits never exceed dim 2",
        build=lambda p: (YK3, YA, YN2),
        expected_invariants=_inv(3, 0, _sp(0), 3, (_E, _H, _P)),
        expected_cohomogeneity=2,
        strata_witnesses=_const_witnesses(((5, 0, 0, 0), 0), ((0, 0, 0, 0), 0)),
        proper=False,
        rank_identity=_so21_identity,
    ))
    add(_entry(
        entry_id="Excluded:SO3",
        summary="spatial rotations alone: orbits are spheres (max dim 2)",
        build=lambda p: (YK1, YK2, YK3),
        expected_invariants=_inv(3, 0, _sp(0), 3, (_E, _E, _E)),
        expected_cohomogeneity=2,
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 0)),
        proper=True,
    ))
    add(_entry(
        entry_id="Excluded:K1N",
        summary="rotation plus both null rotations without translations: max dim 2",
        build=lambda p: (YK1, YN1, YN2),
        expected_invariants=_inv(3, 0, _sp(0), 3, (_E, _P, _P)),
        expected_cohomogeneity=2,
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 0), ((0, 0, 1, -1), 0)),
        proper=False,
        rank_identity=_k1n_identity,
    ))
    add(_entry(
        entry_id="Excluded:K1AN-l",
        summary="point stabilizer extended by the null line: dim-4 orbits appear",
        build=lambda p: (YK1, YA, YN1, YN2, TL),
        expected_invariants=_inv(5, 1, _LIGHT1, 4, (_E, _H, _P, _P)),
        expected_cohomogeneity=0,
        strata_witnesses=_const_witnesses(
            ((1, 2, 3, 5), 4), ((1, 2, 3, -3), 2), ((0, 0, 0, 0), 1)),
        proper=False,
    ))
    add(_entry(
        entry_id="Excluded:AN-l",
        summary="boost and null rotations over the null line: dim-4 orbits appear",
        build=lambda p: (YA, YN1, YN2, TL),
        expected_invariants=_inv(4, 1, _LIGHT1, 3, (_H, _P, _P)),
        expected_cohomogeneity=0,
        strata_witnesses=_const_witnesses(((1, 2, 3, -3), 1), ((0, 0, 0, 0), 1)),
        proper=False,
    ))
    add(_entry(
        entry_id="Excluded:AN1-W2",
        summary="boost and one null rotation over W2: dim-4 orbits appear",
        build=lambda p: (YA, YN1, T2, TL),
        expected_invariants=_inv(4, 2, _deg(2), 2, (_H, _P)),
        expected_cohomogeneity=0,
        strata_witnesses=_const_witnesses(((1, 2, 3, -3), 2)),
        proper=False,
    ))

    return tuple(entries)


@functools.cache
def catalog():
    return builtin_catalog()


def entry_by_id(entry_id):
    return {e.entry_id: e for e in catalog()}[entry_id]


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatchResult:
    entry_id: str
    params: dict
    normalization: tuple  # translation vector that canonicalized the input


def _canon(basis):
    return tuple(echelon_basis([coords10(b) for b in basis]))


def _fit_parameters(entry, target):
    """The parameters at which ``entry.build`` spans exactly the echelon rows
    ``target``, or None.

    Every record's generators are affine in its parameters, so their
    remainders modulo ``target`` are too: they are read off at zero and at
    each unit parameter, and one exact solve makes them all vanish.  A unique
    solution is the fit.  A line of solutions through zero is a homogeneous
    family, fixed only up to scale (the rotation/boost mixtures); it is
    normalized to first parameter 1.  Anything else fits nothing.
    """
    n = len(entry.params)

    def remainders(values):
        basis = entry.build(dict(zip(entry.params, values)))
        return [x for b in basis for x in reduce_mod(target, coords10(b))]

    base = remainders([Fraction(0)] * n)
    units = [remainders([Fraction(i == j) for j in range(n)]) for i in range(n)]
    sol = solve_linear([[u[r] - z for u in units] for r, z in enumerate(base)],
                       [-z for z in base])
    if sol.particular is None or len(sol.kernel) > 1:
        return None
    values = sol.particular
    if sol.kernel:
        line = sol.kernel[0]
        if any(values) or line[0] == 0:
            return None
        values = tuple(x / line[0] for x in line)
    params = dict(zip(entry.params, values))
    return params if _canon(entry.build(params)) == target else None


def match_catalog(h: Subalgebra):
    """Identify a closed subalgebra against the catalog.

    Invariant profile prefilter, the span's translation normal form, one
    exact parameter fit per candidate record (every build is already in
    normal form, so its span compares directly with the input's and needs no
    closure check), then admissibility.  Returns all matches (the catalog is
    designed so that admissible inputs match exactly one record).
    """
    p, target = h.normal_form
    out = []
    for entry in catalog():
        if entry.expected_invariants != h.profile:
            continue
        fitted = _fit_parameters(entry, target)
        if fitted is not None and entry.admissible(fitted):
            out.append(MatchResult(entry.entry_id, fitted, p))
    return out


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    entry_id: str
    checks: tuple
    seed: int
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "entry": self.entry_id,
            "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail}
                       for c in self.checks],
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(frozen=True)
class CatalogReport:
    seed: int
    reports: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    def to_dict(self):
        return {
            "seed": self.seed,
            "pass": self.passed,
            "entries": [r.to_dict() for r in self.reports],
        }


def _instantiations(entry):
    return [(params, closure_check(entry.build(params))) for params in entry.defaults]


def _fmt_params(params):
    if not params:
        return "-"
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def _check_closure(entry, insts):
    bad = [(_fmt_params(p), v.describe()) for p, v in insts if isinstance(v, NotClosed)]
    if bad:
        return CheckResult("closure", False,
                           "; ".join(f"{w} at {q}" for q, w in bad))
    return CheckResult("closure", True,
                       f"{len(insts)} instantiation(s) closed under the bracket")


def _check_invariants(entry, insts):
    for params, h in insts:
        got = h.profile
        if got != entry.expected_invariants:
            return CheckResult("invariants", False,
                               f"at {_fmt_params(params)}: got [{got.describe()}], "
                               f"expected [{entry.expected_invariants.describe()}]")
    return CheckResult("invariants", True, entry.expected_invariants.describe())


def _check_rank_identity(entry, params, h):
    coeffs, note = entry.rank_identity(params)
    fields = [field_polys(b) for b in h.basis]
    for k in range(4):
        total = Poly()
        for c, f in zip(coeffs, fields):
            total = total + c * f[k]
        if not total.is_zero():
            return False, f"claimed dependency identity fails in component {k + 1}"
    return True, note


def _check_cohomogeneity(entry, insts, surveys, samples):
    details = []
    for (params, h), rep in zip(insts, surveys):
        if rep.cohomogeneity != entry.expected_cohomogeneity:
            return CheckResult(
                "cohomogeneity", False,
                f"at {_fmt_params(params)}: computed cohomogeneity "
                f"{rep.cohomogeneity} (orbit dims {set(rep.observed_dims())}), "
                f"table asserts {entry.expected_cohomogeneity}")
        expected_dims = tuple(entry.expected_strata(params))
        if rep.observed_dims() != expected_dims:
            return CheckResult(
                "cohomogeneity", False,
                f"at {_fmt_params(params)}: strata {rep.observed_dims()} != "
                f"expected {expected_dims}")
        # the declared witnesses were surveyed last, after the samples
        for (pt, dim), got in zip(entry.strata_witnesses(params), rep.strata[samples:]):
            if got.dim != dim:
                return CheckResult(
                    "cohomogeneity", False,
                    f"at {_fmt_params(params)}: declared stratum point {pt} has "
                    f"dim {got.dim}, expected {dim}")
        if entry.principal_causal is not None:
            for orbit in rep.strata:
                if orbit.dim != 3:
                    continue
                expect = entry.principal_causal
                if entry.degenerate_locus is not None and entry.degenerate_locus(orbit.point):
                    expect = CausalKind.DEGENERATE
                if orbit.causal.kind is not expect:
                    return CheckResult(
                        "cohomogeneity", False,
                        f"at {_fmt_params(params)}: principal orbit at {orbit.point} is "
                        f"{orbit.causal.kind.value}, expected {expect.value}")
        if entry.rank_identity is not None:
            ok, note = _check_rank_identity(entry, params, h)
            if not ok:
                return CheckResult("cohomogeneity", False, note)
            details.append(f"symbolic rank bound: {note}")
    dims = ",".join(str(d) for d in entry.expected_strata(entry.defaults[0]))
    details.insert(0, f"orbit dims {{{dims}}} over {samples} samples + declared loci")
    return CheckResult("cohomogeneity", True, "; ".join(details))


def nonproperness_witness(entry, params, h):
    """Build the escaping-sequence witness for a nonproper entry.

    Returns (witness, mechanism description).  Raises ValueError for proper
    entries and LookupError if no certificate is found where one is expected.
    """
    if entry.proper:
        raise ValueError(f"{entry.entry_id} is proper; no witness applies")
    if entry.escape_witness is not None:
        # uniform mechanism for the whole family; a declared low stratum (for
        # the screw family: mu^2+4lam^2 a rational square) is a fixed point
        witness = entry.escape_witness(params)
        mechanism = "fixed-point-free escaping sequence"
        if entry.strata_witnesses(params):
            mechanism += " (incidental fixed point exists at these parameters)"
        return witness, mechanism
    cert = fixed_point_nonproper_certificate(h)
    if cert is None:
        raise LookupError("no non-properness certificate found")
    witness = fixed_point_witness(combination(cert.coefficients, h.basis), cert.point, cert.kind)
    mechanism = (f"{cert.kind.value.lower()} stabilizer at "
                 f"({','.join(map(str, cert.point))})")
    return witness, mechanism


def _check_properness(entry, insts, steps, tol):
    notes = []
    for params, h in insts:
        label = _fmt_params(params)
        if entry.proper:
            cert = clock_certificate(h)
            if cert is None:
                stab = fixed_point_nonproper_certificate(h)
                why = ("no clock certificate" if stab is None else
                       f"unexpected noncompact stabilizer {stab.coefficients} "
                       f"fixing {stab.point}")
                return CheckResult("properness", False, f"at {label}: {why}")
            notes.append(f"at {label}: {cert.describe()}" if params else cert.describe())
            continue
        try:
            witness, mechanism = nonproperness_witness(entry, params, h)
        except LookupError as err:
            return CheckResult("properness", False, f"at {label}: {err}")
        try:
            rep = check_witness(witness, steps=steps, tol=tol)
        except WitnessFailedError as err:
            return CheckResult("properness", False, f"at {label}: {err}")
        notes.append(
            f"{mechanism}; norms {rep.group_norms[0]:.3g} -> "
            f"{rep.group_norms[-1]:.3g} over {len(rep.steps)} dyadic steps")
    if entry.proper:
        return CheckResult("properness", True, "proper: " + "; ".join(notes))
    return CheckResult("properness", True, "not proper: " + "; ".join(sorted(set(notes))))


def _check_orbit_space(entry, insts, surveys):
    kinds = []
    for (params, h), survey in zip(insts, surveys):
        spec = entry.orbit_space(params)
        try:
            rep = orbit_space_report(h, spec, survey)
        except (EvidenceFailedError, NotInvariantError) as err:
            return CheckResult("orbit_space", False,
                               f"at {_fmt_params(params)}: {err}")
        kinds.append(rep.kind)
    kind = kinds[0]
    spec = entry.orbit_space(entry.defaults[0])
    if kind is OrbitSpaceKind.HALFLINE:
        dim, ck = spec.singular
        detail = (f"half-line: invariant certified, singular orbit "
                  f"(dim {dim}, {ck.value}) at the boundary")
    else:
        detail = "line: invariant certified, all probed orbits are hypersurfaces"
    return CheckResult("orbit_space", True, detail)


def _check_roundtrip(entry, insts, seed):
    for k, (params, h) in enumerate(insts):
        rng = random.Random(f"{seed}:{entry.entry_id}:{k}")
        q = tuple(Fraction(rng.randint(-10 * d, 10 * d), d) for d in (3, 4, 5, 7))
        matches = match_catalog(recenter(h, q))  # a translation conjugate
        label = _fmt_params(params)
        ids = [m.entry_id for m in matches]
        if ids != [entry.entry_id]:
            return CheckResult("matching-roundtrip", False,
                               f"at {label}: conjugate matched {ids or 'nothing'}")
        m, = matches
        if _canon(entry.build(m.params)) != _canon(h.basis):
            return CheckResult(
                "matching-roundtrip", False,
                f"at {label}: fitted {_fmt_params(m.params)} spans another algebra")
    return CheckResult(
        "matching-roundtrip", True,
        f"unique re-identification after translation conjugation "
        f"({len(insts)} instantiation(s))")


# ---------------------------------------------------------------------------
# Erratum diagnostics (pass=True means the corrected analysis is confirmed)
# ---------------------------------------------------------------------------


def _erratum_deg_regime(entry, insts):
    """The decorated null-rotation family was tabulated with a degenerate
    orbit regime; the orbits are Lorentzian on both sides of the claimed
    boundary.  What does flip is the causal character of the generating
    velocity field."""
    for params, h in insts:
        mu = params["mu"]
        probes = ((vec4(0, 0, 0, 0), -mu * mu), (vec4(0, 0, 5 * mu, 0), 24 * mu * mu))
        for pt, want in probes:
            v = fundamental_field(h.basis[0], pt)
            d = mink_inner(v, v)
            if d != want:
                return CheckResult("erratum:deg-regime-lorentzian", False,
                                   f"velocity norm at {pt} is {d}, expected {want}")
            rep = orbit_dimension(h, pt)
            if rep.causal.kind is not CausalKind.LORENTZIAN:
                return CheckResult(
                    "erratum:deg-regime-lorentzian", False,
                    f"orbit at {pt} is {rep.causal.kind.value}, not Lorentzian")
    return CheckResult(
        "erratum:deg-regime-lorentzian", True,
        "orbits are Lorentzian on both sides of the claimed degenerate regime; "
        "only the generator velocity flips causal character (norms -mu^2 and 24mu^2)")


def _erratum_deg_locus(entry, insts):
    """The degenerate-orbit locus of the boost-with-drift family is
    p3 + p4 = 0, not p3 = p4."""
    for params, h in insts:
        on_claimed = orbit_dimension(h, vec4(0, 0, 1, 1))     # p3 = p4, sum != 0
        on_actual = orbit_dimension(h, vec4(1, 2, 3, -3))     # p3 + p4 = 0
        if on_claimed.causal.kind is not CausalKind.LORENTZIAN:
            return CheckResult("erratum:degenerate-locus", False,
                               f"orbit at (0,0,1,1) is {on_claimed.causal.kind.value}")
        if on_actual.causal.kind is not CausalKind.DEGENERATE or on_actual.dim != 3:
            return CheckResult("erratum:degenerate-locus", False,
                               f"orbit at (1,2,3,-3) is {on_actual.causal.kind.value}")
    return CheckResult(
        "erratum:degenerate-locus", True,
        "degenerate orbits sit exactly on p3+p4=0 (the tabulated locus p3=p4 "
        "carries Lorentzian orbits)")


def _erratum_not_closed(entry, insts):
    """The tabulated version of this family decorates the null rotations with
    a free parameter; closure forces that parameter to zero."""
    for params, _h in insts:
        a, b = params["a"], params["b"]
        lam = Fraction(1)
        printed = (YN1 + T2.scaled(lam), YN2 + T1.scaled(lam),
                   YK1.scaled(a) + YA.scaled(b), TL)
        verdict = closure_check(printed)
        if not isinstance(verdict, NotClosed):
            return CheckResult("erratum:printed-lambda-not-closed", False,
                               f"decorated variant unexpectedly closed at "
                               f"a={a}, b={b}")
        rows = echelon_basis([coords10(x) for x in printed])
        residual = reduce_mod(rows, coords10(verdict.witness))
        expected = coords10(T1.scaled(-2 * a * lam) + T2.scaled(-b * lam))
        if residual != expected:
            return CheckResult("erratum:printed-lambda-not-closed", False,
                               f"unexpected closure residual {residual}")
    return CheckResult(
        "erratum:printed-lambda-not-closed", True,
        "the bracket with the mixture leaves a translation residual spanning "
        "2a*e1 + b*e2 (per unit lam) outside the span, so closure forces "
        "lam=0; only the undecorated members are groups")


def _erratum_dim4(entry, insts):
    for params, h in insts:
        rep = orbit_dimension(h, vec4(1, 2, 3, 5))
        if rep.dim != 4:
            return CheckResult("erratum:dim4-off-W3", False,
                               f"orbit dim at (1,2,3,5) is {rep.dim}")
        low = orbit_dimension(h, vec4(1, 2, 1, -1))
        if low.dim != 2:
            return CheckResult("erratum:dim4-off-W3", False,
                               f"orbit dim at (1,2,1,-1) is {low.dim}")
    return CheckResult(
        "erratum:dim4-off-W3", True,
        "orbits have dimension 4 off the null hyperplane p3+p4=0 (det of the "
        "four fields is -b(p3+p4)^3), so the closed members act with "
        "cohomogeneity 0, not 1")


_ERRATUM_CHECKS = {
    "erratum:deg-regime-lorentzian": _erratum_deg_regime,
    "erratum:degenerate-locus": _erratum_deg_locus,
    "erratum:printed-lambda-not-closed": _erratum_not_closed,
    "erratum:dim4-off-W3": _erratum_dim4,
}


# ---------------------------------------------------------------------------
# Entry / catalog verification drivers
# ---------------------------------------------------------------------------


def verify_entry(entry, seed=42, samples=32, steps=1024, tol=1e-6) -> VerificationReport:
    start = time.perf_counter()
    checks = []
    insts = _instantiations(entry)
    closure = _check_closure(entry, insts)
    checks.append(closure)
    if closure.passed:
        checks.append(_check_invariants(entry, insts))
        surveys = [cohomogeneity(h, seed=seed, samples=samples,
                                 extra_points=[pt for pt, _ in entry.strata_witnesses(params)])
                   for params, h in insts]
        checks.append(_check_cohomogeneity(entry, insts, surveys, samples))
        checks.append(_check_properness(entry, insts, steps, tol))
        if entry.orbit_space is not None:
            checks.append(_check_orbit_space(entry, insts, surveys))
        checks.append(_check_roundtrip(entry, insts, seed))
        for slug in entry.errata:
            checks.append(_ERRATUM_CHECKS[slug](entry, insts))
    else:
        for name in ("invariants", "cohomogeneity", "properness",
                     "matching-roundtrip"):
            checks.append(CheckResult(name, False, "skipped: closure failed"))
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(entry_id=entry.entry_id, checks=tuple(checks),
                              seed=seed, elapsed_ms=elapsed_ms)


def verify_all(seed=42, samples=32, steps=1024, tol=1e-6) -> CatalogReport:
    reports = [verify_entry(e, seed=seed, samples=samples, steps=steps, tol=tol)
               for e in catalog()]
    return CatalogReport(seed=seed, reports=tuple(reports))

"""The classification catalog for cohomogeneity-one isometry groups of
Minkowski 4-space, with machine-checkable evidence per entry.

Each record is affine data: generators, plus per parameter a decoration that
is added to them scaled by its value; then the expected conjugation
invariants, explicit witness points for every non-generic orbit stratum, and
the properness verdict.  Each fact is stated once: the family is the id's
prefix, the parameter names are the decorations' keys, admissibility is the
names that must not vanish, the invariants are the translation ideal's
signature and the one-parameter types (the causal kind and the three
dimensions follow), the cohomogeneity is 1 unless a record says otherwise,
the expected strata are the generic dimension plus those of the witness
points, and the orbit space of a proper table record is derived from its
Killing fields.  `verify_entry` replays all of it; `match_catalog`
re-identifies an arbitrary closed subalgebra against the table: one exact
linear solve on the span's translation normal form fits a record's parameters.

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
import time
from collections import namedtuple
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .algebra import coords10, element, fundamental_field, standard_generator
from .linalg import (
    classify_signature,
    echelon_form,
    integer_rank,
    integral,
    mink_inner,
    reduce_form,
    solve_linear,
    vec4,
)
from .orbits import (
    EvidenceFailedError,
    NotInvariantError,
    OrbitSpaceKind,
    OrbitSpaceSpec,
    Poly,
    cohomogeneity,
    field_polys,
    orbit_space_report,
    orbit_space_spec,
    point_text,
    quadratic_point,
)
from .properness import (
    clock_certificate,
    fixed_point_nonproper_certificate,
    fixed_point_witness,
)
from .subalgebra import (
    NotClosed,
    OneParamType,
    Subalgebra,
    SubalgebraInvariants,
    closure_check,
    require_closed,
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
O = element()  # the zero element: a generator slot a parameter leaves alone

_E = OneParamType.ELLIPTIC
_H = OneParamType.HYPERBOLIC
_M = OneParamType.MIXED
_P = OneParamType.PARABOLIC


def _inv(signature, types):
    """A record's invariants: its ideal's signature (n+, n-, n0) and its types."""
    return SubalgebraInvariants(classify_signature(*signature), tuple(types))


# ---------------------------------------------------------------------------
# Catalog record type
# ---------------------------------------------------------------------------


def _const_witnesses(*pairs):
    return lambda _p: pairs


class CatalogEntry(NamedTuple):
    entry_id: str  # "<family>:<name>"
    summary: str
    generators: tuple  # the basis at every parameter zero
    expected_invariants: SubalgebraInvariants
    proper: bool
    decorations: dict = {}  # parameter -> one addend per generator, or O for none
    nonzero: tuple = ()  # parameters no admissible instantiation sets to zero
    defaults: tuple = ({},)  # instantiations the verifier exercises
    expected_cohomogeneity: int = 1
    strata_witnesses: object = _const_witnesses()  # params -> ((point, dim), ...)
    errata: tuple = ()

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
        return tuple(self.decorations)

    def build(self, params):
        """The basis at ``params``: the generators plus the scaled decorations."""
        basis = list(self.generators)
        for name, decoration in self.decorations.items():
            for i, d in enumerate(decoration):
                if d is not O:
                    term = d.scaled(params[name])
                    basis[i] = term if basis[i] is O else basis[i] + term
        return tuple(basis)

    def admissible(self, params) -> bool:
        """Whether every parameter named in ``nonzero`` is nonzero."""
        return all(params[name] != 0 for name in self.nonzero)

    @property
    def recovery(self):
        """(kind, (params, basis) -> kwargs) for parameter_recovery_check on a
        proper record: the one recovery map, read off the clock certificate."""
        return ("clock", lambda p, basis: {"basis": basis}) if self.proper else None

    @property
    def orbit_space(self):
        """params -> the OrbitSpaceSpec derived from that instantiation's
        Killing fields, on the proper table records; None on the others."""
        if not (self.proper and self.in_table):
            return None

        return lambda params: orbit_space_spec(require_closed(self.build(params)))

    @property
    def principal_causal(self):
        """The causal kind of the principal orbits at the first default, read
        off the derived orbit space; None where there is none."""
        spaces = self.orbit_space
        return spaces and spaces(self.defaults[0]).principal_causal

    def stratum_points(self, params):
        """The declared witness points: surveyed for their strata, and the
        candidates, beside the origin, for a fixed point."""
        return [pt for pt, _ in self.strata_witnesses(params)]

    def expected_strata(self, params):
        """Orbit dimensions, descending: the generic 4 - cohomogeneity and the
        dimension of every declared witness point."""
        dims = {4 - self.expected_cohomogeneity}
        dims.update(dim for _, dim in self.strata_witnesses(params))
        return tuple(sorted(dims, reverse=True))


_SIGMA = Poly.var(2) + Poly.var(3)  # p3 + p4, the null level


def _screw_witnesses(params):
    """The two-dimensional stratum of the screw family: the orbit rank drops
    where sigma = p3 + p4 solves sigma^2 + mu sigma - lam^2 = 0, whose
    discriminant mu^2 + 4 lam^2 is positive at every admissible lam.  The point
    (0, 0, sigma, 0) at the larger root is rational when the discriminant is a
    rational square, and in Q(sqrt(mu^2 + 4 lam^2)) otherwise."""
    lam, mu = params["lam"], params["mu"]
    return ((quadratic_point((0, 0, -mu / 2, 0), (0, 0, Fraction(1, 2), 0),
                             mu * mu + 4 * lam * lam), 2),)


def builtin_catalog():
    """All 27 records: 21 classified group entries (19 printed families, with
    both degenerate-decoration families split into their proper and nonproper
    parameter regimes) plus 6 excluded near misses."""
    entries = []
    add = entries.append

    # ----- three translation groups -------------------------------------
    add(CatalogEntry(
        entry_id="T1:R3",
        summary="translations of a spacelike 3-plane",
        generators=(T1, T2, T3),
        expected_invariants=_inv((3, 0, 0), ()),
        proper=True,
    ))
    add(CatalogEntry(
        entry_id="T1:R21",
        summary="translations of a timelike 3-plane",
        generators=(T2, T3, T4),
        expected_invariants=_inv((2, 1, 0), ()),
        proper=True,
    ))
    add(CatalogEntry(
        entry_id="T1:W3",
        summary="translations of the degenerate 3-plane x3+x4=0",
        generators=(T1, T2, TL),
        expected_invariants=_inv((2, 0, 1), ()),
        proper=True,
    ))

    # ----- one linear generator plus a translation plane -----------------
    add(CatalogEntry(
        entry_id="T2:SO11xR2",
        summary="boost of the (e3,e4) plane times spacelike translations",
        generators=(YA, T1, T2),
        expected_invariants=_inv((2, 0, 0), (_H,)),
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 2)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T2:SO2xR11",
        summary="rotation of the (e1,e2) plane times timelike-plane translations",
        generators=(YK1, T3, T4),
        expected_invariants=_inv((1, 1, 0), (_E,)),
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 2), ((0, 0, 3, 5), 2)),
        proper=True,
    ))
    add(CatalogEntry(
        entry_id="T2:Ya+le1-W2",
        summary="boost with spacelike drift, extended by the degenerate plane W2",
        generators=(YA, T2, TL),
        decorations={"lam": (T1, O, O)}, nonzero=("lam",),
        defaults=({"lam": Fraction(1)}, {"lam": Fraction(-2)}),
        expected_invariants=_inv((1, 0, 1), (_H,)),
        proper=True,
        errata=("erratum:degenerate-locus",),
    ))
    add(CatalogEntry(
        entry_id="T2:Ya-W2",
        summary="pure boost extended by the degenerate plane W2 (drift 0)",
        generators=(YA, T2, TL),
        expected_invariants=_inv((1, 0, 1), (_H,)),
        strata_witnesses=_const_witnesses(((0, 0, 1, -1), 2), ((0, 0, 0, 0), 2)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T2:Yn1+me4-W2",
        summary="null rotation with timelike drift, extended by W2",
        generators=(YN1, T2, TL),
        decorations={"mu": (T4, O, O)}, nonzero=("mu",),
        defaults=({"mu": Fraction(3)},),
        expected_invariants=_inv((1, 0, 1), (_P,)),
        proper=True,
        errata=("erratum:deg-regime-lorentzian",),
    ))
    add(CatalogEntry(
        entry_id="T2:Yn1-W2",
        summary="pure null rotation extended by W2 (drift 0)",
        generators=(YN1, T2, TL),
        expected_invariants=_inv((1, 0, 1), (_P,)),
        strata_witnesses=_const_witnesses(((1, 0, 0, 0), 2), ((0, 0, 0, 0), 2)),
        proper=False,
    ))

    # ----- larger linear parts -------------------------------------------
    add(CatalogEntry(
        entry_id="T3:SO21xRe1",
        summary="Lorentz group of the (e2,e3,e4) summand times the e1 line",
        generators=(YK3, YA, YN2, T1),
        expected_invariants=_inv((1, 0, 0), (_E, _H, _P)),
        strata_witnesses=_const_witnesses(((1, 0, 0, 0), 1)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T3:AN2xRe1",
        summary="solvable boost+null-rotation plane group times the e1 line",
        generators=(YA, YN2, T1),
        expected_invariants=_inv((1, 0, 0), (_H, _P)),
        strata_witnesses=_const_witnesses(((0, 1, 1, -1), 2), ((5, 0, 0, 0), 1)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T3:SO3xRe4",
        summary="spatial rotations times time translations",
        generators=(YK1, YK2, YK3, T4),
        expected_invariants=_inv((0, 1, 0), (_E, _E, _E)),
        strata_witnesses=_const_witnesses(((0, 0, 0, 3), 1)),
        proper=True,
    ))
    add(CatalogEntry(
        entry_id="T3:K1A-l",
        summary="rotation+boost pair extended by the null line",
        generators=(YK1, YA, TL),
        expected_invariants=_inv((0, 0, 1), (_E, _H)),
        strata_witnesses=_const_witnesses(
            ((0, 0, 1, 0), 2), ((1, 1, 1, -1), 2), ((0, 0, 1, -1), 1)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T3:Ya+le2-N1-l",
        summary="boost with spacelike drift plus a null rotation, over the null line",
        generators=(YA, YN1, TL),
        decorations={"lam": (T2, O, O)},
        defaults=({"lam": Fraction(1)}, {"lam": Fraction(-2)}),
        expected_invariants=_inv((0, 0, 1), (_H, _P)),
        strata_witnesses=_const_witnesses(((1, 0, 1, -1), 2)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T3:nilpotent-pair",
        summary="two decorated null rotations over the null line (screw family)",
        generators=(YN1, YN2, TL),
        decorations={"lam": (T2, T1, O), "mu": (O, T2, O)}, nonzero=("lam",),
        defaults=({"lam": Fraction(1), "mu": Fraction(0)},
                  {"lam": Fraction(1), "mu": Fraction(3)},
                  {"lam": Fraction(-2), "mu": Fraction(0)},
                  {"lam": Fraction(-2), "mu": Fraction(3)}),
        expected_invariants=_inv((0, 0, 1), (_P, _P)),
        strata_witnesses=_screw_witnesses,
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T3:K1N-l",
        summary="rotation plus both null rotations, over the null line",
        generators=(YK1, YN1, YN2, TL),
        expected_invariants=_inv((0, 0, 1), (_E, _P, _P)),
        strata_witnesses=_const_witnesses(((1, 2, 1, -1), 2), ((0, 0, 1, -1), 1)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T3:N-aK1bA-l",
        summary="both null rotations plus a rotation/boost mixture, over the null line",
        generators=(YN1, YN2, O, TL),
        decorations={"a": (O, O, YK1, O), "b": (O, O, YA, O)}, nonzero=("a", "b"),
        defaults=({"a": Fraction(1), "b": Fraction(1)},
                  {"a": Fraction(2), "b": Fraction(-1)}),
        expected_invariants=_inv((0, 0, 1), (_M, _P, _P)),
        strata_witnesses=_const_witnesses(
            ((1, 2, 3, 5), 4), ((1, 2, 1, -1), 2), ((0, 0, 0, 0), 1)),
        proper=False,
        errata=("erratum:printed-lambda-not-closed", "erratum:dim4-off-W3"),
    ))

    # ----- full point-stabilizer subgroups --------------------------------
    add(CatalogEntry(
        entry_id="T4:SO31",
        summary="the full connected Lorentz group (origin fixed)",
        generators=(YK1, YK2, YK3, YA, YN1, YN2),
        expected_invariants=_inv((0, 0, 0), (_E, _E, _E, _H, _P, _P)),
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 0)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T4:K1AN",
        summary="rotation, boost, and both null rotations (origin fixed)",
        generators=(YK1, YA, YN1, YN2),
        expected_invariants=_inv((0, 0, 0), (_E, _H, _P, _P)),
        strata_witnesses=_const_witnesses(((0, 0, 1, -1), 1), ((0, 0, 0, 0), 0)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T4:aK1bA-N",
        summary="a rotation/boost mixture with both null rotations (origin fixed)",
        generators=(O, YN1, YN2),
        decorations={"a": (YK1, O, O), "b": (YA, O, O)}, nonzero=("a", "b"),
        defaults=({"a": Fraction(1), "b": Fraction(1)},
                  {"a": Fraction(2), "b": Fraction(-1)}),
        expected_invariants=_inv((0, 0, 0), (_M, _P, _P)),
        strata_witnesses=_const_witnesses(((1, 2, 1, -1), 2), ((0, 0, 0, 0), 0)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="T4:AN",
        summary="boost and both null rotations (origin fixed)",
        generators=(YA, YN1, YN2),
        expected_invariants=_inv((0, 0, 0), (_H, _P, _P)),
        strata_witnesses=_const_witnesses(((1, 2, 1, -1), 1), ((0, 0, 0, 0), 0)),
        proper=False,
    ))

    # ----- excluded near misses -------------------------------------------
    add(CatalogEntry(
        entry_id="Excluded:SO21",
        summary="Lorentz group of a 3-summand alone: orbits never exceed dim 2",
        generators=(YK3, YA, YN2),
        expected_invariants=_inv((0, 0, 0), (_E, _H, _P)),
        expected_cohomogeneity=2,
        strata_witnesses=_const_witnesses(((5, 0, 0, 0), 0), ((0, 0, 0, 0), 0)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="Excluded:SO3",
        summary="spatial rotations alone: orbits are spheres (max dim 2)",
        generators=(YK1, YK2, YK3),
        expected_invariants=_inv((0, 0, 0), (_E, _E, _E)),
        expected_cohomogeneity=2,
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 0)),
        proper=True,
    ))
    add(CatalogEntry(
        entry_id="Excluded:K1N",
        summary="rotation plus both null rotations without translations: max dim 2",
        generators=(YK1, YN1, YN2),
        expected_invariants=_inv((0, 0, 0), (_E, _P, _P)),
        expected_cohomogeneity=2,
        strata_witnesses=_const_witnesses(((0, 0, 0, 0), 0), ((0, 0, 1, -1), 0)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="Excluded:K1AN-l",
        summary="point stabilizer extended by the null line: dim-4 orbits appear",
        generators=(YK1, YA, YN1, YN2, TL),
        expected_invariants=_inv((0, 0, 1), (_E, _H, _P, _P)),
        expected_cohomogeneity=0,
        strata_witnesses=_const_witnesses(
            ((1, 2, 3, 5), 4), ((1, 2, 3, -3), 2), ((0, 0, 0, 0), 1)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="Excluded:AN-l",
        summary="boost and null rotations over the null line: dim-4 orbits appear",
        generators=(YA, YN1, YN2, TL),
        expected_invariants=_inv((0, 0, 1), (_H, _P, _P)),
        expected_cohomogeneity=0,
        strata_witnesses=_const_witnesses(((1, 2, 3, -3), 1), ((0, 0, 0, 0), 1)),
        proper=False,
    ))
    add(CatalogEntry(
        entry_id="Excluded:AN1-W2",
        summary="boost and one null rotation over W2: dim-4 orbits appear",
        generators=(YA, YN1, T2, TL),
        expected_invariants=_inv((1, 0, 1), (_H, _P)),
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


class MatchResult(NamedTuple):
    entry_id: str
    params: dict
    normalization: tuple  # translation vector that canonicalized the input


def _fit_parameters(entry, target):
    """The parameters at which ``entry.build`` spans exactly the echelon form
    ``target`` = (rows, d), or None.

    The basis is affine in the parameters, generators plus decorations, so
    its remainder modulo ``target`` is too: one exact solve, on all their
    coordinates over one denominator, makes the generators' remainders cancel
    against the decorations'.  A unique solution is the fit.  A line of
    solutions through zero is a homogeneous family, fixed only up to scale
    (the rotation/boost mixtures); it is normalized to first parameter 1.
    Anything else fits nothing.  Every fitted build vector then lies in the
    span of ``target``, so the build spans it exactly when its rank is the
    number of ``target`` rows.  That rank is read on the cleared rows: with
    the values over one denominator e, build row i is e times generator row
    i plus each value's numerator times its decoration's row i.
    """
    n = len(entry.generators)
    width = 10 * n
    ints, _ = integral([coords10(b) for basis in (entry.generators, *entry.decorations.values())
                        for b in basis])
    rems = [x for row in ints for x in reduce_form(target, row)]
    base, units = rems[:width], [rems[i:i + width] for i in range(width, len(rems), width)]
    sol = solve_linear([[u[r] for u in units] for r in range(width)], [-z for z in base])
    if sol.particular is None or len(sol.kernel) > 1:
        return None
    values = sol.particular
    if sol.kernel:
        line = sol.kernel[0]
        if any(values) or line[0] == 0:
            return None
        values = tuple(x / line[0] for x in line)
    (nums,), e = integral([values])
    rows = [[e * g + sum(map(mul, nums, ds)) for g, *ds in zip(*ints[i::n])] for i in range(n)]
    return dict(zip(entry.params, values)) if integer_rank(rows) == len(target[0]) else None


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


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
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


class CatalogReport(NamedTuple):
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


# what every check after closure reads: the record, its instantiations
# (params, h), one survey per instantiation (``samples`` seeded points, then
# the declared stratum points) and its orbit space: the spec, None off the
# proper table records, or the EvidenceFailedError its derivation raised
_Replay = namedtuple("_Replay", "entry insts surveys samples spaces")


def _fmt_params(params):
    return ",".join(f"{k}={params[k]}" for k in sorted(params)) or "-"


def _failed(name, params, message):
    return CheckResult(name, False, f"at {_fmt_params(params)}: {message}")


def _check_closure(insts):
    bad = [(_fmt_params(p), v.describe()) for p, v in insts if isinstance(v, NotClosed)]
    if bad:
        return CheckResult("closure", False,
                           "; ".join(f"{w} at {q}" for q, w in bad))
    return CheckResult("closure", True,
                       f"{len(insts)} instantiation(s) closed under the bracket")


def _check_invariants(run):
    entry = run.entry
    for params, h in run.insts:
        got = h.profile
        if got != entry.expected_invariants:
            return _failed("invariants", params, f"got [{got.describe()}], "
                           f"expected [{entry.expected_invariants.describe()}]")
    return CheckResult("invariants", True, entry.expected_invariants.describe())


def _declared_mismatch(run, params, survey):
    """The first declared (point, dim) whose orbit, one of the survey's extra
    points, has another dimension, as (point text, got, want); else None."""
    return next(((point_text(pt), rep.dim, want) for (pt, want), rep
                 in zip(run.entry.strata_witnesses(params), survey.strata[run.samples:])
                 if rep.dim != want), None)


def _check_cohomogeneity(run):
    """The survey's cohomogeneity is exact; its points decide the strata, the
    declared points and the principal causal types."""
    entry = run.entry
    for (params, _h), rep, space in zip(run.insts, run.surveys, run.spaces):
        dims, expected_dims = rep.observed_dims(), entry.expected_strata(params)
        if rep.cohomogeneity != entry.expected_cohomogeneity:
            return _failed("cohomogeneity", params,
                           f"computed cohomogeneity {rep.cohomogeneity} (orbit dims {set(dims)}), "
                           f"table asserts {entry.expected_cohomogeneity}")
        if dims != expected_dims:
            return _failed("cohomogeneity", params, f"strata {dims} != expected {expected_dims}")
        if mismatch := _declared_mismatch(run, params, rep):
            return _failed("cohomogeneity", params,
                           "declared stratum point {} has dim {}, expected {}".format(*mismatch))
        # the Gram signature of each principal orbit against the sign of N
        for orbit in rep.strata if isinstance(space, OrbitSpaceSpec) else ():
            expect = orbit.dim == 3 and space.causal_at(orbit.point)
            if expect and orbit.causal.kind is not expect:
                return _failed("cohomogeneity", params,
                               f"principal orbit at {point_text(orbit.point)} is "
                               f"{orbit.causal.kind.value}, expected {expect.value}")
    dims = ",".join(str(d) for d in entry.expected_strata(entry.defaults[0]))
    return CheckResult("cohomogeneity", True,
                       f"orbit dims {{{dims}}} over {run.samples} samples + declared loci")


def nonproperness_witness(entry, params, h):
    """(witness, mechanism) for a nonproper entry: the escaping-sequence
    ladder about the fixed point of the certificate that ``verify`` reads, as
    an illustration.  Raises ValueError for proper entries, LookupError
    without a certificate, and OverflowError for a parameter past float
    range, or nonzero but rounded to zero, where the ladder leaves the group.
    """
    if entry.proper:
        raise ValueError(f"{entry.entry_id} is proper; no witness applies")
    if any(v and not float(v) for v in params.values()):
        raise OverflowError("a nonzero parameter underflows to zero in floats")
    cert = fixed_point_nonproper_certificate(h, entry.stratum_points(params))
    if cert is None:
        raise LookupError("no non-properness certificate found")
    return fixed_point_witness(cert.linear(h.basis), cert.point, cert.kind), cert.describe()


def _check_properness(run):
    entry, notes = run.entry, []
    for params, h in run.insts:
        if entry.proper:
            cert = clock_certificate(h)
            if cert is None:
                stab = fixed_point_nonproper_certificate(h, entry.stratum_points(params))
                why = "no clock certificate" if stab is None else f"unexpected {stab.describe()}"
                return _failed("properness", params, why)
            notes.append(f"at {_fmt_params(params)}: {cert.describe()}" if params
                         else cert.describe())
            continue
        stab = fixed_point_nonproper_certificate(h, entry.stratum_points(params))
        if stab is None:
            return _failed("properness", params, "no non-properness certificate found")
        notes.append(stab.describe())
    if entry.proper:
        return CheckResult("properness", True, "proper: " + "; ".join(notes))
    return CheckResult("properness", True, "not proper: " + "; ".join(sorted(set(notes))))


def _check_orbit_space(run):
    for (params, h), survey, spec in zip(run.insts, run.surveys, run.spaces):
        if not isinstance(spec, OrbitSpaceSpec):
            return _failed("orbit_space", params, spec)
        try:
            orbit_space_report(h, spec, survey)
        except (EvidenceFailedError, NotInvariantError) as err:
            return _failed("orbit_space", params, err)
    spec = run.spaces[0]
    if spec.kind is OrbitSpaceKind.HALFLINE:
        dim, ck = spec.singular
        detail = (f"half-line: invariant certified, singular orbit "
                  f"(dim {dim}, {ck.value}) at the boundary")
    else:
        detail = "line: invariant certified, all probed orbits are hypersurfaces"
    return CheckResult("orbit_space", True, detail)


def _check_roundtrip(run):
    """Re-identify each instantiation h, which settles every translation
    conjugate recenter(h, q) at once.  Recentring at q adds M q to the
    stacked decorations D, where column j of M is X_i e_j reduced modulo the
    translation ideal, and the normal form keeps only D modulo the column span
    of M; the profile reads only the linear parts and the ideal, and the fit
    only the normal-form rows.  So every conjugate matches as h does.  The
    fitted build spans h's normal form, which must be h's own span."""
    for params, h in run.insts:
        matches = match_catalog(h)
        ids = [m.entry_id for m in matches]
        if ids != [run.entry.entry_id]:
            return _failed("matching-roundtrip", params, f"matched {ids or 'nothing'}")
        if h.normal_form[1] != h.echelon_rows:
            return _failed("matching-roundtrip", params,
                           f"fitted {_fmt_params(matches[0].params)} spans another algebra")
    return CheckResult(
        "matching-roundtrip", True,
        f"unique re-identification after translation conjugation "
        f"({len(run.insts)} instantiation(s))")


# ---------------------------------------------------------------------------
# Erratum diagnostics (pass=True means the corrected analysis is confirmed)
# ---------------------------------------------------------------------------


def _gradient_norm_check(name, run, shape, claim, detail):
    """The erratum ``name``, decided by the invariant's gradient norm N at
    every instantiation: it passes with ``detail`` where N is a positive
    multiple of the Poly ``shape``, as ``claim`` states.  A record without an
    orbit space derives its own."""
    mono, unit = next(iter(shape.terms.items()))
    for (params, h), spec in zip(run.insts, run.spaces):
        spec = spec or _derive_space(h)
        if not isinstance(spec, OrbitSpaceSpec):
            return _failed(name, params, spec)
        norm = spec.gradient_norm
        multiple = norm.terms.get(mono, 0) / unit
        if not (multiple > 0 and norm == shape.scale(multiple)):
            return _failed(name, params,
                           f"the invariant's gradient norm is {norm}, not {claim}")
    return CheckResult(name, True, detail)


def _erratum_deg_regime(run):
    """The decorated null-rotation family was tabulated with a degenerate
    orbit regime; the orbits are Lorentzian on both sides of the claimed
    boundary, as the invariant's gradient norm is a positive constant.  What
    does flip is the causal character of the generating velocity field."""
    for params, h in run.insts:
        mu = params["mu"]
        probes = ((vec4(0, 0, 0, 0), -mu * mu), (vec4(0, 0, 5 * mu, 0), 24 * mu * mu))
        for pt, want in probes:
            v = fundamental_field(h.basis[0], pt)
            d = mink_inner(v, v)
            if d != want:
                return CheckResult("erratum:deg-regime-lorentzian", False,
                                   f"velocity norm at {pt} is {d}, expected {want}")
    return _gradient_norm_check(
        "erratum:deg-regime-lorentzian", run, Poly.const(1), "a positive constant",
        "orbits are Lorentzian on both sides of the claimed degenerate regime; "
        "only the generator velocity flips causal character (norms -mu^2 and 24mu^2)")


def _erratum_deg_locus(run):
    """The degenerate-orbit locus of the boost-with-drift family is
    p3 + p4 = 0, not p3 = p4: the invariant's gradient norm is a positive
    multiple of (p3 + p4)^2."""
    return _gradient_norm_check(
        "erratum:degenerate-locus", run, _SIGMA * _SIGMA, "a positive multiple of (p3+p4)^2",
        "degenerate orbits sit exactly on p3+p4=0 (the tabulated locus p3=p4 "
        "carries Lorentzian orbits)")


def _erratum_not_closed(run):
    """The tabulated version of this family decorates the null rotations with
    a free parameter; closure forces that parameter to zero."""
    for params, _h in run.insts:
        a, b = params["a"], params["b"]  # the decoration at lam = 1
        printed = (YN1 + T2, YN2 + T1, YK1.scaled(a) + YA.scaled(b), TL)
        verdict = closure_check(printed)
        if not isinstance(verdict, NotClosed):
            return CheckResult("erratum:printed-lambda-not-closed", False,
                               f"decorated variant unexpectedly closed at "
                               f"a={a}, b={b}")
        form = echelon_form(coords10(x) for x in printed)
        residual = tuple(x / form[1] for x in reduce_form(form, coords10(verdict.witness)))
        expected = coords10(T1.scaled(-2 * a) + T2.scaled(-b))
        if residual != expected:
            return CheckResult("erratum:printed-lambda-not-closed", False,
                               f"unexpected closure residual {residual}")
    return CheckResult(
        "erratum:printed-lambda-not-closed", True,
        "the bracket with the mixture leaves a translation residual spanning "
        "2a*e1 + b*e2 (per unit lam) outside the span, so closure forces "
        "lam=0; only the undecorated members are groups")


def _det(rows):
    """The determinant of a square matrix of Polys, by first-row cofactors."""
    if not rows:
        return Poly.const(1)
    total = Poly()
    for j, a in enumerate(rows[0]):
        term = a * _det([row[:j] + row[j + 1:] for row in rows[1:]])
        total = total - term if j % 2 else total + term
    return total


def _erratum_dim4(run):
    """det of the four Killing fields = -b(p3+p4)^3, and every declared point,
    (1,2,3,5) off p3+p4=0 among them, has its declared dimension."""
    for (params, h), survey in zip(run.insts, run.surveys):
        det = _det([field_polys(b) for b in h.basis])
        if det != (_SIGMA * _SIGMA * _SIGMA).scale(-params["b"]):
            return _failed("erratum:dim4-off-W3", params, f"det of the four fields is {det}")
        if mismatch := _declared_mismatch(run, params, survey):
            return _failed("erratum:dim4-off-W3", params,
                           "orbit dim at {} is {}".format(*mismatch))
    return CheckResult(
        "erratum:dim4-off-W3", True,
        "orbits have dimension 4 off the null hyperplane p3+p4=0 (det of the "
        "four fields is -b(p3+p4)^3), so the closed members act with "
        "cohomogeneity 0, not 1")


_CHECKS = {
    "invariants": _check_invariants,
    "cohomogeneity": _check_cohomogeneity,
    "properness": _check_properness,
    "orbit_space": _check_orbit_space,
    "matching-roundtrip": _check_roundtrip,
    "erratum:deg-regime-lorentzian": _erratum_deg_regime,
    "erratum:degenerate-locus": _erratum_deg_locus,
    "erratum:printed-lambda-not-closed": _erratum_not_closed,
    "erratum:dim4-off-W3": _erratum_dim4,
}


# ---------------------------------------------------------------------------
# Entry / catalog verification drivers
# ---------------------------------------------------------------------------


def _derive_space(h):
    """h's orbit space, or the EvidenceFailedError that fails the rows reading it."""
    try:
        return orbit_space_spec(h)
    except EvidenceFailedError as err:
        return err


def verify_entry(entry, seed=42, samples=32) -> VerificationReport:
    start = time.perf_counter()
    insts = [(params, closure_check(entry.build(params))) for params in entry.defaults]
    closure = _check_closure(insts)
    names = ("invariants", "cohomogeneity", "properness",
             *(("orbit_space",) if entry.orbit_space else ()), "matching-roundtrip",
             *entry.errata)  # the rows after closure, whether it holds or not
    if closure.passed:
        surveys = [cohomogeneity(h, seed=seed, samples=samples,
                                 extra_points=entry.stratum_points(params))
                   for params, h in insts]
        spaces = [entry.orbit_space and _derive_space(h) for _, h in insts]
        run = _Replay(entry, insts, surveys, samples, spaces)
        rows = [_CHECKS[name](run) for name in names]
    else:
        rows = [CheckResult(name, False, "skipped: closure failed") for name in names]
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(entry_id=entry.entry_id, checks=(closure, *rows),
                              seed=seed, elapsed_ms=elapsed_ms)


def verify_all(seed=42, samples=32) -> CatalogReport:
    reports = [verify_entry(e, seed=seed, samples=samples) for e in catalog()]
    return CatalogReport(seed=seed, reports=tuple(reports))

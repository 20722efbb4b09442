"""Acceptance gate: eight end-to-end criteria, one PASS/FAIL line each.

Each test prints exactly one line of the form

    PASS — criterion k: ...
    FAIL — criterion k: ...

before asserting, so the verdicts survive into captured output either way.

Criteria 3 and 8 are implemented faithfully and currently FAIL: the scaled
rotation-boost mixture record (T3:N-aK1bA-l) is reproduced exactly as its
source table states it, and in that form its generic orbits are
four-dimensional, so it cannot act with cohomogeneity one and the full
catalog verification cannot exit cleanly.  The defect is documented by that
entry's erratum checks (which PASS — see criterion 5) rather than patched
over here.
"""

import json
import random
import time
from fractions import Fraction

from minkact.algebra import (
    GENERATOR_MATRICES,
    GENERATOR_ORDER,
    adjoint,
    bracket,
    eta_skew_ok,
    from_coords10,
    lift_constraints,
    standard_generator,
)
from minkact.catalog import catalog, entry_by_id, verify_entry
from minkact.cli import format_element, main
from minkact.group import (
    compose,
    exp_element_exact,
    lorentz_ok,
    rational_boost_34,
    rational_rotation_12,
    translation,
)
from minkact.linalg import CausalKind, mink_inner, spans_equal, vec4
from minkact.orbits import (
    Poly,
    cohomogeneity,
    invariant_function_check,
    orbit_dimension,
    orbit_space_report,
)
from minkact.orbits import OrbitSpaceKind
from minkact.properness import (
    check_witness,
    fixed_point_nonproper_certificate,
    parameter_recovery_check,
)
from minkact.subalgebra import require_closed
from minkact.catalog import nonproperness_witness


def report(k, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} — criterion {k}: {detail}")
    assert ok, f"criterion {k}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1 — the structure relations, exactly, from the matrices alone
# ---------------------------------------------------------------------------

RELATIONS = {
    ("Yk1", "Yk2"): {"Yk3": -1},
    ("Yk1", "Yk3"): {"Yk2": 1},
    ("Yk1", "Ya"): {},
    ("Yk1", "Yn1"): {"Yn2": -1},
    ("Yk1", "Yn2"): {"Yn1": 1},
    ("Yk2", "Yk3"): {"Yk1": -1},
    ("Yk2", "Ya"): {"Yk2": -1, "Yn1": 1},
    ("Yk2", "Yn1"): {"Ya": -1},
    ("Yk2", "Yn2"): {"Yk1": -1},
    ("Yk3", "Ya"): {"Yk3": -1, "Yn2": 1},
    ("Yk3", "Yn1"): {"Yk1": 1},
    ("Yk3", "Yn2"): {"Ya": -1},
    ("Ya", "Yn1"): {"Yn1": -1},
    ("Ya", "Yn2"): {"Yn2": -1},
    ("Yn1", "Yn2"): {},
}


def test_criterion_1_structure_relations():
    start = time.perf_counter()
    bad = []
    for (a, b), combo in RELATIONS.items():
        got = bracket(standard_generator(a), standard_generator(b))
        expected = None
        for name, c in combo.items():
            term = standard_generator(name).scaled(c)
            expected = term if expected is None else expected + term
        if expected is None:
            expected = standard_generator("Yk1").scaled(0)
        if got != expected:  # exact Fraction equality, no tolerance
            bad.append(f"[{a},{b}]")
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 0.1
    report(1, ok,
           f"all 15 bracket relations recomputed exactly from the generator "
           f"matrices in {elapsed * 1000:.1f}ms"
           + (f"; mismatches: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 2 — translation decorations of the full Lorentz algebra
# ---------------------------------------------------------------------------


def _family_assignment(u1, u2, v1, x3):
    rows = (
        (u1, u2, 0, 0), (v1, 0, u2, 0), (0, v1, -u1, 0),
        (0, 0, x3, v1), (x3 + v1, 0, u2, -u2), (0, x3 + v1, -u1, u1),
    )
    return sum((tuple(map(Fraction, r)) for r in rows), ())


def test_criterion_2_forced_translation_family():
    mats = [GENERATOR_MATRICES[n] for n in GENERATOR_ORDER]
    fam = lift_constraints(mats)
    expected = [_family_assignment(*e) for e in
                ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    same = spans_equal(fam.flattened(), expected)
    report(2, fam.dim == 4 and same,
           f"translation lifts of the full Lorentz algebra form a "
           f"{fam.dim}-parameter family (constraint rank {fam.rank}) equal, "
           f"in both directions, to the expected four-parameter span")


# ---------------------------------------------------------------------------
# criterion 3 — cohomogeneity partition of the catalog
# ---------------------------------------------------------------------------


def test_criterion_3_cohomogeneity_partition():
    failures = []
    for entry in catalog():
        for params in entry.defaults:
            h = require_closed(entry.build(params))
            witnesses = entry.strata_witnesses(params)
            rep = cohomogeneity(h, seed=42, samples=32,
                                extra_points=[pt for pt, _ in witnesses])
            label = entry.entry_id + (
                f"[{','.join(f'{k}={params[k]}' for k in sorted(params))}]"
                if params else "")
            if entry.in_table:
                if rep.cohomogeneity != 1:
                    failures.append(
                        f"{label}: cohomogeneity {rep.cohomogeneity} "
                        f"(orbit dims {set(rep.observed_dims())})")
                    continue
            elif rep.cohomogeneity == 1:
                failures.append(f"{label}: excluded entry acts with cohomogeneity one")
                continue
            if rep.observed_dims() != tuple(entry.expected_strata(params)):
                failures.append(
                    f"{label}: strata {rep.observed_dims()} != declared "
                    f"{tuple(entry.expected_strata(params))}")
            for pt, dim in witnesses:
                if orbit_dimension(h, pt).dim != dim:
                    failures.append(f"{label}: declared locus {pt} misses dim {dim}")
    report(3, not failures,
           "every table row acts with cohomogeneity one and every excluded row "
           "does not, with the declared strata realized exactly "
           "(32 seeded samples + declared loci per instantiation)"
           + ("; " + "; ".join(failures) if failures else ""))


# ---------------------------------------------------------------------------
# criterion 4 — properness partition, witnesses, and recovery maps
# ---------------------------------------------------------------------------

PROPER_IDS = {
    "T1:R3", "T1:R21", "T1:W3", "T2:SO2xR11", "T2:Ya+le1-W2",
    "T2:Yn1+me4-W2", "T3:SO3xRe4", "Excluded:SO3",
}


def test_criterion_4_properness_partition():
    problems = []
    got_proper = {e.entry_id for e in catalog() if e.proper}
    if got_proper != PROPER_IDS:
        problems.append(f"proper set is {sorted(got_proper)}")
    for entry in catalog():
        for params in entry.defaults:
            h = require_closed(entry.build(params))
            cert = fixed_point_nonproper_certificate(h)
            if entry.proper:
                if cert is not None:
                    problems.append(f"{entry.entry_id}: unexpected noncompact stabilizer")
                kind, kwargs_fn = entry.recovery
                try:
                    parameter_recovery_check(kind, kwargs_fn(params, h.basis),
                                             trials=100)
                except Exception as err:  # any mismatch breaks the criterion
                    problems.append(f"{entry.entry_id}: recovery failed ({err})")
            else:
                try:
                    witness, _ = nonproperness_witness(entry, params, h)
                    check_witness(witness, steps=1024, tol=1e-6)
                except Exception as err:
                    problems.append(f"{entry.entry_id}: witness failed ({err})")
    # boundary behavior: the drift parameters at zero flip the verdict
    drifting = require_closed(entry_by_id("T2:Ya+le1-W2").build({"lam": Fraction(1, 2)}))
    undecorated = require_closed(entry_by_id("T2:Ya-W2").build({}))
    if fixed_point_nonproper_certificate(drifting) is not None:
        problems.append("drifting boost family is not fixed-point free")
    if fixed_point_nonproper_certificate(undecorated) is None:
        problems.append("lam=0 boundary lost its noncompact stabilizer")
    null_drift = require_closed(entry_by_id("T2:Yn1+me4-W2").build({"mu": Fraction(3)}))
    null_plain = require_closed(entry_by_id("T2:Yn1-W2").build({}))
    if fixed_point_nonproper_certificate(null_drift) is not None:
        problems.append("drifting null family is not fixed-point free")
    if fixed_point_nonproper_certificate(null_plain) is None:
        problems.append("mu=0 boundary lost its noncompact stabilizer")
    report(4, not problems,
           "properness partition is exactly the expected 8/19 split; recovery "
           "maps succeed over 100 trials per proper family, escape witnesses "
           "check out (1024 dyadic steps, tol 1e-06) per nonproper family, and "
           "the lam=0 / mu=0 boundaries flip to nonproper"
           + ("; " + "; ".join(problems) if problems else ""))


# ---------------------------------------------------------------------------
# criterion 5 — orbit-space evidence, principal causal classes, diagnostics
# ---------------------------------------------------------------------------

LINE_IDS = {"T1:R3", "T1:R21", "T1:W3", "T2:Ya+le1-W2", "T2:Yn1+me4-W2"}
HALFLINE_IDS = {"T2:SO2xR11", "T3:SO3xRe4"}


def test_criterion_5_orbit_space_program():
    problems = []
    declared = {e.entry_id: e for e in catalog() if e.orbit_space is not None}
    if set(declared) != LINE_IDS | HALFLINE_IDS:
        problems.append(f"orbit-space set is {sorted(declared)}")
    for entry_id, entry in declared.items():
        params = entry.defaults[0]
        h = require_closed(entry.build(params))
        spec = entry.orbit_space(params)
        try:
            rep = orbit_space_report(h, spec, cohomogeneity(h, seed=42, samples=32))
        except Exception as err:
            problems.append(f"{entry_id}: evidence failed ({err})")
            continue
        want = (OrbitSpaceKind.LINE if entry_id in LINE_IDS
                else OrbitSpaceKind.HALFLINE)
        if rep.kind is not want:
            problems.append(f"{entry_id}: orbit space is {rep.kind}")

    # the two half-line invariants are the expected rotation radii
    p1, p2, p3 = Poly.var(0), Poly.var(1), Poly.var(2)
    so2 = entry_by_id("T2:SO2xR11")
    if so2.orbit_space(so2.defaults[0]).invariant != p1 * p1 + p2 * p2:
        problems.append("planar radius invariant is wrong")
    so3 = entry_by_id("T3:SO3xRe4")
    if so3.orbit_space(so3.defaults[0]).invariant != p1 * p1 + p2 * p2 + p3 * p3:
        problems.append("spatial radius invariant is wrong")
    for eid, inv in (("T2:SO2xR11", p1 * p1 + p2 * p2),
                     ("T3:SO3xRe4", p1 * p1 + p2 * p2 + p3 * p3)):
        e = entry_by_id(eid)
        invariant_function_check(require_closed(e.build(e.defaults[0])), inv)
    if so2.orbit_space(so2.defaults[0]).singular != (2, CausalKind.LORENTZIAN):
        problems.append("planar-rotation singular orbit is wrong")
    if so3.orbit_space(so3.defaults[0]).singular != (1, CausalKind.TIMELIKE):
        problems.append("spatial-rotation singular orbit is wrong")

    # spacelike principal orbits occur exactly once in the table
    spacelike = {e.entry_id for e in catalog()
                 if e.in_table and e.principal_causal is CausalKind.SPACELIKE}
    if spacelike != {"T1:R3"}:
        problems.append(f"spacelike principal entries: {sorted(spacelike)}")
    flat = require_closed(entry_by_id("T1:R3").build({}))
    if orbit_dimension(flat, (1, 2, 3, 5)).causal.kind is not CausalKind.SPACELIKE:
        problems.append("T1:R3 principal orbit is not spacelike")

    # the drifting null family: the generator field changes causal character
    # across its degenerate level while the orbits stay Lorentzian throughout
    mu = Fraction(3)
    nul = entry_by_id("T2:Yn1+me4-W2")
    hn = require_closed(nul.build({"mu": mu}))
    gen = hn.basis[0]
    inner, outer = (0, 0, 0, 0), (0, 0, 5 * mu, 0)
    from minkact.algebra import fundamental_field
    d_inner = mink_inner(fundamental_field(gen, inner), fundamental_field(gen, inner))
    d_outer = mink_inner(fundamental_field(gen, outer), fundamental_field(gen, outer))
    if not (d_inner < 0 < d_outer):
        problems.append(f"velocity character does not flip ({d_inner}, {d_outer})")
    for pt in (inner, outer):
        if orbit_dimension(hn, pt).causal.kind is not CausalKind.LORENTZIAN:
            problems.append(f"orbit at {pt} is not Lorentzian")

    # every defect diagnostic on the books actually fires
    for eid in ("T2:Ya+le1-W2", "T2:Yn1+me4-W2", "T3:N-aK1bA-l"):
        rep = verify_entry(entry_by_id(eid))
        for c in rep.checks:
            if c.name.startswith("erratum:") and not c.passed:
                problems.append(f"{eid}: {c.name} did not confirm ({c.detail})")

    report(5, not problems,
           "orbit spaces: 5 line + 2 half-line records with certified "
           "invariants and singular-orbit data; spacelike principal orbits "
           "occur exactly once; the drifting null family's velocity character "
           "flips sign across its degenerate level while orbits stay "
           "Lorentzian; all four defect diagnostics confirm"
           + ("; " + "; ".join(problems) if problems else ""))


# ---------------------------------------------------------------------------
# criterion 6 — algebraic identities under randomized exact trials
# ---------------------------------------------------------------------------

TRIALS = 200


def _random_element(rng):
    return from_coords10([Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                          for _ in range(10)])


def _random_isometry(rng):
    g = translation(vec4(*(Fraction(rng.randint(-8, 8), 3) for _ in range(4))))
    g = compose(g, rational_rotation_12(Fraction(rng.randint(-6, 6), 7)))
    return compose(g, rational_boost_34(Fraction(rng.randint(-4, 4), 5)))


def test_criterion_6_algebraic_identities():
    rng = random.Random(20260816)
    problems = []
    for _ in range(TRIALS):
        x, y, z = (_random_element(rng) for _ in range(3))
        if bracket(x, y) != bracket(y, x).scaled(-1):
            problems.append("antisymmetry")
            break
        jac = (bracket(bracket(x, y), z) + bracket(bracket(y, z), x)
               + bracket(bracket(z, x), y))
        if jac != jac.scaled(0):
            problems.append("Jacobi identity")
            break
        if not eta_skew_ok(bracket(x, y).linear):
            problems.append("bracket leaves the Lorentz constraint")
            break
    for _ in range(TRIALS):
        g = _random_isometry(rng)
        x, y = _random_element(rng), _random_element(rng)
        if adjoint(g, bracket(x, y)) != bracket(adjoint(g, x), adjoint(g, y)):
            problems.append("Ad is not a bracket homomorphism")
            break
        if not eta_skew_ok(adjoint(g, x).linear):
            problems.append("Ad leaves the Lorentz constraint")
            break
    n1, n2 = standard_generator("Yn1"), standard_generator("Yn2")
    for _ in range(TRIALS):
        elt = (n1.scaled(Fraction(rng.randint(-4, 4), 3))
               + n2.scaled(Fraction(rng.randint(-4, 4), 3))
               + from_coords10([0] * 6 + [rng.randint(-5, 5) for _ in range(4)]))
        s = Fraction(rng.randint(-9, 9), 4)
        t = Fraction(rng.randint(-9, 9), 4)
        left = compose(exp_element_exact(elt, s), exp_element_exact(elt, t))
        right = exp_element_exact(elt, s + t)
        if left != right:
            problems.append("one-parameter exponential law")
            break
        if not lorentz_ok(right.V):
            problems.append("exponential leaves the isometry group")
            break
    report(6, not problems,
           f"antisymmetry, Jacobi, Lorentz-constraint preservation, Ad as a "
           f"bracket homomorphism, and the one-parameter exponential law all "
           f"hold over {TRIALS} exact randomized trials each"
           + ("; first failure: " + problems[0] if problems else ""))


# ---------------------------------------------------------------------------
# criterion 7 — conjugated instantiations re-identified through the CLI
# ---------------------------------------------------------------------------


def test_criterion_7_conjugation_reidentification(tmp_path, capsys):
    rng = random.Random(2026)
    problems = []
    for entry in catalog():
        params = entry.defaults[0]
        h = require_closed(entry.build(params))
        q = vec4(*(Fraction(rng.randint(-10 * d, 10 * d), d)
                   for d in (3, 4, 5, 7)))
        conj = [adjoint(translation(q), b) for b in h.basis]
        path = tmp_path / (entry.entry_id.replace(":", "_") + ".txt")
        path.write_text("\n".join(format_element(b) for b in conj) + "\n")
        code = main(["classify", str(path), "--json"])
        data = json.loads(capsys.readouterr().out)
        ids = [m["entry"] for m in data.get("matches", ())]
        if code != 0 or ids != [entry.entry_id]:
            problems.append(f"{entry.entry_id}: matched {ids or 'nothing'}")
    report(7, not problems,
           "all 27 default instantiations, conjugated by random rational "
           "translations, re-identify uniquely through the classify pipeline"
           + ("; " + "; ".join(problems) if problems else ""))


# ---------------------------------------------------------------------------
# criterion 8 — the full verification replay is clean and fast
# ---------------------------------------------------------------------------


def test_criterion_8_full_verification_replay(capsys):
    start = time.perf_counter()
    code = main(["verify", "--json"])
    elapsed = time.perf_counter() - start
    data = json.loads(capsys.readouterr().out)
    failing = [e["entry"] for e in data["entries"]
               if not all(c["pass"] for c in e["checks"])]
    ok = code == 0 and elapsed < 10.0
    report(8, ok,
           f"full catalog replay finished in {elapsed:.1f}s (budget 10s) with "
           f"exit code {code}"
           + (f"; failing entries: {failing}" if failing else ""))

"""Command line for the Minkowski isometry catalog.

Subcommands:

* ``verify``    — replay every catalog entry's evidence (or one entry's)
* ``classify``  — identify the group generated by a text file of generators
* ``orbit``     — orbit dimension / causal type of an entry at a point
* ``witness``   — run the escaping-sequence properness refutation for an entry
* ``export``    — sample an orbit patch of an entry to CSV

Exit codes: 0 on success (including a clean "not closed" or "no match"
classification report), 1 when a verification or witness check fails, 2 on
usage errors (unknown entry, malformed input file, out-of-range parameters).
"""

import argparse
import csv
import functools
import json
import math
import random
import re
import sys
from fractions import Fraction

from .algebra import GENERATOR_ORDER, coords10, from_coords10
from .catalog import (
    CatalogReport,
    entry_by_id,
    match_catalog,
    nonproperness_witness,
    verify_all,
    verify_entry,
)
from .group import act, exp_map
from .linalg import DependentBasisError
from .orbits import cohomogeneity, orbit_dimension, point_text
from .properness import WitnessFailedError, check_witness
from .subalgebra import NotClosed, closure_check, require_closed

_TOKENS = GENERATOR_ORDER + ("e1", "e2", "e3", "e4")


def format_element(elt) -> str:
    """Render an algebra element as a combination of the named generators."""
    parts = []
    for name, c in zip(_TOKENS, coords10(elt)):
        if c == 0:
            continue
        if c == 1:
            parts.append(name)
        elif c == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{c}*{name}")
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


_MAX_DIGITS = 1000


def exact_literal(text):
    """Fraction(text), refused past _MAX_DIGITS digits (its length plus its
    decimal exponent): Fraction builds 10**n for an exponent n, and Python
    prints no integer past 4300 digits."""
    exponent = re.search(r"[eE]([+-]?\d+)\s*$", text) if len(text) <= _MAX_DIGITS else None
    if len(text) + (abs(int(exponent[1])) if exponent else 0) > _MAX_DIGITS:
        raise ValueError(f"the literal {text[:20]}{'...' * (len(text) > 20)} has over "
                         f"{_MAX_DIGITS} digits")
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None


def parse_element(text):
    """Parse one generator line, e.g. ``Ya + 1/2*e1`` or ``Yn1 - 2.5e-3*e2``."""
    term_sign = r"(?<![\d.][eE])"  # a sign not of an exponent, as in 1e-3 or 1.E+2
    src = re.sub(term_sign + "-", "+-", text.replace(" ", "").replace("\t", ""))
    if src.startswith("+"):
        src = src[1:]
    total = [Fraction(0)] * len(_TOKENS)
    for raw in re.split(term_sign + r"\+", src):
        if not raw:
            raise ValueError(f"empty term in {text!r}")
        coeff, term = (Fraction(-1), raw[1:]) if raw.startswith("-") else (Fraction(1), raw)
        if "*" in term:
            num, term = term.split("*", 1)
            try:
                coeff *= exact_literal(num)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
        if term not in _TOKENS:
            raise ValueError(f"unknown generator {term!r} in {text!r}")
        total[_TOKENS.index(term)] += coeff
    return from_coords10(total)


def parse_generator_file(path):
    elements = []
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        try:  # decoded per line, so that a byte that is not UTF-8 has a line number
            body = line.decode("utf-8").split("#", 1)[0].strip()
            if body:
                elements.append(parse_element(body))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    if not elements:
        raise ValueError(f"{path}: no generators found")
    return tuple(elements)


def _fmt_params(params):
    return ", ".join(f"{k}={params[k]}" for k in sorted(params))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args):
    if args.entry is not None:
        try:
            entry = entry_by_id(args.entry)
        except KeyError:
            print(f"error: unknown catalog entry {args.entry!r}", file=sys.stderr)
            return 2
        rep = verify_entry(entry, seed=args.seed, samples=args.samples)
        report = CatalogReport(seed=args.seed, reports=(rep,))
    else:
        report = verify_all(seed=args.seed, samples=args.samples)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for rep in report.reports:
            for c in rep.checks:
                word = "PASS" if c.passed else "FAIL"
                print(f"{word} {rep.entry_id} [{c.name}] {c.detail}")
        good = sum(1 for r in report.reports if r.passed)
        print(f"== {good}/{len(report.reports)} catalog entries fully verified ==")
    return 0 if report.passed else 1


def cmd_classify(args):
    try:
        basis = parse_generator_file(args.file)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        verdict = closure_check(basis)
    except DependentBasisError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if isinstance(verdict, NotClosed):
        residual = format_element(verdict.witness)
        if args.json:
            print(json.dumps({
                "closed": False,
                "pair": [verdict.i, verdict.j],
                "bracket": residual,
            }, indent=2))
        else:
            print(f"not closed: {verdict.describe()}")
            print(f"  bracket: {residual}")
        return 0

    h = verdict
    inv = h.profile
    rep = cohomogeneity(h, seed=args.seed, samples=args.samples)
    matches = match_catalog(h)
    if args.json:
        print(json.dumps({
            "closed": True,
            "invariants": inv.describe(),
            "cohomogeneity": rep.cohomogeneity,
            "orbit_dims": list(rep.observed_dims()),
            "matches": [{
                "entry": m.entry_id,
                "params": {k: str(v) for k, v in m.params.items()},
                "normalization": [str(c) for c in m.normalization],
            } for m in matches],
        }, indent=2))
        return 0
    print(f"closed subalgebra: {inv.describe()}")
    dims = ",".join(str(d) for d in rep.observed_dims())
    print(f"cohomogeneity {rep.cohomogeneity} (orbit dims {{{dims}}} "
          f"over {args.samples} samples)")
    if rep.cohomogeneity != 1:
        print("note: not cohomogeneity one")
    if not matches:
        print("match: none (not in the catalog)")
    for m in matches:
        entry = entry_by_id(m.entry_id)
        line = f"match: {m.entry_id}: {entry.summary}"
        if m.params:
            line += f" [{_fmt_params(m.params)}]"
        print(line)
        print(f"  normalizing translation: {point_text(m.normalization)}")
    return 0


def _flag(name):
    return "--lambda" if name == "lam" else f"--{name}"


def _in_float_range(cmd):
    """Run a subcommand that computes in floats, where an OverflowError (from
    float(), math.cosh, or a witness or export value that is not finite) is a
    usage error, never a check FAIL or rows of inf and nan."""
    @functools.wraps(cmd)
    def run(args):
        try:
            return cmd(args)
        except OverflowError:
            print(f"error: {args.entry} leaves the floating-point range at these "
                  "parameters", file=sys.stderr)
            return 2
    return run


def _resolve_entry(args):
    """(entry, parameter dict, closed subalgebra) from --entry/--lambda/--mu/--a/--b,
    or None on error."""
    try:
        entry = entry_by_id(args.entry)
    except KeyError:
        print(f"error: unknown catalog entry {args.entry!r}", file=sys.stderr)
        return None
    params = dict(entry.defaults[0])
    for name in ("lam", "mu", "a", "b"):
        value = getattr(args, name, None)
        if value is None:
            continue
        if name not in entry.params:
            print(f"error: {entry.entry_id} takes no parameter {_flag(name)}",
                  file=sys.stderr)
            return None
        params[name] = value
    if not entry.admissible(params):
        print(f"error: parameters [{_fmt_params(params)}] are outside the "
              f"admissible range for {entry.entry_id}", file=sys.stderr)
        return None
    return entry, params, require_closed(entry.build(params))


def cmd_orbit(args):
    resolved = _resolve_entry(args)
    if resolved is None:
        return 2
    entry, params, h = resolved
    rep = orbit_dimension(h, args.point)
    if args.json:
        print(json.dumps({
            "entry": entry.entry_id,
            "params": {k: str(v) for k, v in params.items()},
            "point": [str(c) for c in rep.point],
            "dim": rep.dim,
            "causal": str(rep.causal),
            "tangent": [[str(c) for c in row] for row in rep.tangent_basis],
        }, indent=2))
        return 0
    print(f"{entry.entry_id} at {point_text(rep.point)}:")
    print(f"  orbit dimension {rep.dim}, causal type {rep.causal}")
    for row in rep.tangent_basis:
        print(f"  tangent {point_text(row)}")
    return 0


@_in_float_range
def cmd_witness(args):
    resolved = _resolve_entry(args)
    if resolved is None:
        return 2
    entry, params, h = resolved
    if entry.proper:
        print(f"error: {entry.entry_id} acts properly; no escape witness applies",
              file=sys.stderr)
        return 2
    witness, mechanism = nonproperness_witness(entry, params, h)
    try:
        rep = check_witness(witness, steps=args.steps, tol=args.tol)
    except WitnessFailedError as err:
        if args.json:
            print(json.dumps({"entry": entry.entry_id, "pass": False,
                              "detail": str(err)}, indent=2))
        else:
            print(f"FAIL {entry.entry_id}: {err}")
        return 1
    if args.json:
        print(json.dumps({
            "entry": entry.entry_id,
            "pass": True,
            "mechanism": mechanism,
            "steps": list(rep.steps),
            "group_norms": [float(x) for x in rep.group_norms],
            "point_gap": rep.point_gap,
            "image_gap": rep.image_gap,
        }, indent=2))
        return 0
    print(f"PASS {entry.entry_id}: {mechanism}")
    print(f"  group norms {rep.group_norms[0]:.4g} -> {rep.group_norms[-1]:.4g} "
          f"over {len(rep.steps)} dyadic steps")
    print(f"  point gap {rep.point_gap:.3g}, image gap {rep.image_gap:.3g} "
          f"(tol {args.tol:g})")
    return 0


@_in_float_range
def cmd_export(args):
    resolved = _resolve_entry(args)
    if resolved is None:
        return 2
    basis = resolved[2].basis[:3]
    base_f = [float(c) for c in args.point]

    if args.grid is not None:
        n = args.grid
        ts = [(-2.0 + 4.0 * k / (n - 1)) if n > 1 else 0.0 for k in range(n)]
        triples = [(t1, t2, t3) for t1 in ts for t2 in ts for t3 in ts]
    else:
        rng = random.Random(args.seed)
        triples = [tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
                   for _ in range(args.samples)]

    # one map per generator, evaluated per distinct t_k; one action per (t_k, ..., t3)
    points = {(): base_f}
    for k in (2, 1, 0):
        exp_k, tails = exp_map(basis[k]), {ts[k:] for ts in triples}
        exps = {t: exp_k(t) for t in {tail[0] for tail in tails}}
        points = {tail: act(exps[tail[0]], points[tail[1:]]) for tail in tails}
    if not all(math.isfinite(c) for x in points.values() for c in x):
        raise OverflowError("the orbit patch leaves the float range")
    rows = [(*ts, *points[ts]) for ts in triples]

    try:
        out = sys.stdout if args.out == "-" else open(args.out, "w", newline="")
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        writer = csv.writer(out)
        writer.writerow(["t1", "t2", "t3", "x", "y", "z", "w"])
        for row in rows:
            writer.writerow([f"{v:.12g}" for v in row])
    finally:
        if out is not sys.stdout:
            out.close()
    if out is not sys.stdout:
        print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _rational(text):
    try:
        return exact_literal(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from None
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _point_type(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "point must be four comma-separated rationals, e.g. 1,2,3,5")
    return tuple(_rational(s) for s in parts)


def _int_at_least(low):
    """argparse type for an integer no smaller than ``low``."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _positive_float(text):
    """argparse type for a positive finite float (a tolerance)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _param_flags(p):
    p.add_argument("--lambda", dest="lam", type=_rational,
                   help="family parameter lambda (rational)")
    p.add_argument("--mu", type=_rational, help="family parameter mu (rational)")
    p.add_argument("--a", type=_rational, help="mixture coefficient a (rational)")
    p.add_argument("--b", type=_rational, help="mixture coefficient b (rational)")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="minkact",
        description="verify and explore the catalog of cohomogeneity-one "
                    "isometry groups of Minkowski 4-space")
    sub = parser.add_subparsers(dest="command", required=True)

    def sampling(p):
        p.add_argument("--seed", type=int, default=42,
                       help="seed for rational sampling (default 42)")
        p.add_argument("--samples", type=_int_at_least(1), default=32,
                       help="number of sample points (default 32)")

    pv = sub.add_parser("verify",
                        help="replay the evidence behind every catalog entry")
    sampling(pv)
    pv.add_argument("--entry", help="restrict to one catalog entry")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("classify",
                        help="identify the group generated by a file of generators")
    sampling(pc)
    pc.add_argument("file",
                    help="text file, one generator per line (e.g. 'Ya + 1/2*e1'); "
                         "'#' starts a comment")
    pc.set_defaults(func=cmd_classify)

    po = sub.add_parser("orbit",
                        help="orbit dimension and causal type at a point")
    po.add_argument("--entry", required=True, help="catalog entry id")
    _param_flags(po)
    po.add_argument("--point", type=_point_type, default="1,2,3,5",
                    help="base point as four rationals (default 1,2,3,5)")
    po.set_defaults(func=cmd_orbit)

    pw = sub.add_parser("witness",
                        help="run the escaping-sequence properness refutation")
    # a hyperbolic walk at t_n = log(1+n) grows its norm about like n, so the
    # check that the last norm exceeds 10x the first needs the ladder to reach 32
    pw.add_argument("--steps", type=_int_at_least(32), default=1024,
                    help="escape-sequence ladder length (default 1024)")
    pw.add_argument("--tol", type=_positive_float, default=1e-6,
                    help="convergence tolerance (default 1e-6)")
    pw.add_argument("--entry", required=True, help="catalog entry id")
    _param_flags(pw)
    pw.set_defaults(func=cmd_witness)

    pe = sub.add_parser("export", help="sample an orbit patch to CSV")
    sampling(pe)
    pe.add_argument("--entry", required=True, help="catalog entry id")
    _param_flags(pe)
    pe.add_argument("--point", type=_point_type, default="1,2,3,5",
                    help="base point as four rationals (default 1,2,3,5)")
    pe.add_argument("--grid", type=_int_at_least(1),
                    help="export an n^3 parameter lattice instead of random samples")
    pe.add_argument("--out", required=True, help="output CSV path ('-' for stdout)")
    pe.set_defaults(func=cmd_export)

    for p in (pv, pc, po, pw):  # export writes CSV only
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

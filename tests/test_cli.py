"""End-to-end command line behavior, run in-process through main()."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minkact
import minkact.cli
from minkact.algebra import GENERATOR_ORDER, standard_generator
from minkact.catalog import catalog
from minkact.cli import format_element, main, parse_element, parse_generator_file
from minkact.properness import WitnessFailedError


def write_generators(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# element syntax
# ---------------------------------------------------------------------------


def test_parse_format_roundtrip():
    for text in ("Yk1", "Ya + 1/2*e1", "Yn1 - 2*e2 + e4", "-Yn2",
                 "3*Yk2 - 1/3*Yk3 + e1"):
        elt = parse_element(text)
        assert format_element(elt) == text
        assert parse_element(format_element(elt)) == elt


def test_parse_element_merges_repeated_terms():
    assert format_element(parse_element("e1 + e1 - 2*e1")) == "0"


def summed_generators(terms):
    """Oracle for parse_element: the token-by-token sum of scaled generators."""
    total = standard_generator("e1").scaled(0)
    for token, coeff in terms:
        total = total + standard_generator(token).scaled(coeff)
    return total


def exponent_form(mantissa, point, exponent, letter):
    """(value, text) of a decimal coefficient such as 12.5e-3 or 4E+2."""
    digits = str(abs(mantissa)).rjust(point + 1, "0")
    text = f"{digits[:len(digits) - point]}.{digits[len(digits) - point:]}" if point else digits
    sign = "-" if exponent < 0 else "+" if exponent % 2 else ""
    value = Fraction(mantissa, 10 ** point) * Fraction(10) ** exponent
    return value, f"{text}{letter}{sign}{abs(exponent)}"


coefficients = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6)
    .map(lambda c: (c, str(abs(c)))),
    st.builds(exponent_form, st.integers(-9999, 9999), st.integers(0, 3),
              st.integers(-6, 6), st.sampled_from("eE")))

generator_terms = st.lists(
    st.tuples(st.sampled_from(GENERATOR_ORDER + ("e1", "e2", "e3", "e4")), coefficients),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(generator_terms)
@example([("Ya", (Fraction(1), "1")), ("e1", (Fraction(1, 1000), "1e-3"))])
@example([("Ya", (Fraction(100), "1E+2"))])
def test_parse_element_equals_the_scaled_generator_sum(terms):
    text = ""
    for token, (coeff, magnitude) in terms:
        sign = "-" if coeff < 0 else "+"
        text += f" {sign} {magnitude}*{token}" if text else f"{sign}{magnitude}*{token}"
    assert parse_element(text) == summed_generators(
        [(token, coeff) for token, (coeff, _) in terms])


def test_classify_reads_exponent_notation(tmp_path, capsys):
    path = write_generators(tmp_path, "exp.txt", ["Ya + 1e-3*e1", "1E+2*Ya"])
    assert main(["classify", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("closed subalgebra: dim 2; translations 1")


def test_parse_element_rejects_unknown_tokens():
    with pytest.raises(ValueError, match="unknown generator"):
        parse_element("Yk1 + q7")


def test_parse_generator_file_skips_comments(tmp_path):
    path = write_generators(tmp_path, "gens.txt", [
        "# a rotation with both null rotations",
        "Yk1   # the rotation",
        "",
        "Yn1",
        "Yn2",
    ])
    assert len(parse_generator_file(path)) == 3


def test_parse_generator_file_reports_line_numbers(tmp_path):
    path = write_generators(tmp_path, "bad.txt", ["Yk1", "wat"])
    with pytest.raises(ValueError, match=r"bad\.txt:2"):
        parse_generator_file(path)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_entry_passes(capsys):
    assert main(["verify", "--entry", "T1:R3"]) == 0
    out = capsys.readouterr().out
    assert "PASS T1:R3 [closure]" in out
    assert "PASS T1:R3 [orbit_space]" in out
    assert "== 1/1 catalog entries fully verified ==" in out


def test_verify_unknown_entry_is_usage_error(capsys):
    assert main(["verify", "--entry", "T9:nope"]) == 2
    assert "unknown catalog entry" in capsys.readouterr().err


def test_verify_known_defect_fails(capsys):
    assert main(["verify", "--entry", "T3:N-aK1bA-l"]) == 1
    out = capsys.readouterr().out
    assert "FAIL T3:N-aK1bA-l [cohomogeneity]" in out
    assert "PASS T3:N-aK1bA-l [erratum:dim4-off-W3]" in out
    assert "== 0/1 catalog entries fully verified ==" in out


def _masked(payload):
    data = json.loads(payload)
    for e in data["entries"]:
        e["elapsed_ms"] = 0
    return data


def test_full_verify_json_reports_honest_failure_and_is_deterministic(capsys):
    assert main(["verify", "--json"]) == 1
    first = capsys.readouterr().out
    assert main(["verify", "--json"]) == 1
    second = capsys.readouterr().out
    data = _masked(first)
    assert data["pass"] is False
    assert data["seed"] == 42
    assert len(data["entries"]) == 27
    bad = [e["entry"] for e in data["entries"]
           if not all(c["pass"] for c in e["checks"])]
    assert bad == ["T3:N-aK1bA-l"]
    assert data == _masked(second)


def test_properness_rows_do_not_read_the_seed(capsys):
    rows = []
    for seed in ("42", "866494"):
        main(["verify", "--json", "--seed", seed])
        data = json.loads(capsys.readouterr().out)
        rows.append([(e["entry"], c) for e in data["entries"]
                     for c in e["checks"] if c["name"] == "properness"])
    assert len(rows[0]) == 27
    assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_not_closed(tmp_path, capsys):
    path = write_generators(tmp_path, "open.txt", ["Yk1", "Yn1"])
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "not closed: [basis 0, basis 1] leaves the span" in out
    assert "bracket: -Yn2" in out


def test_classify_closed_but_not_cohomogeneity_one(tmp_path, capsys):
    path = write_generators(tmp_path, "k1n.txt", ["Yk1", "Yn1", "Yn2"])
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "closed subalgebra:" in out
    assert "cohomogeneity 2 (orbit dims {2} over 32 samples)" in out
    assert "note: not cohomogeneity one" in out
    assert "match: Excluded:K1N:" in out


def test_classify_transitive_group_with_every_translation(tmp_path, capsys):
    # the translation ideal is all of R^{3,1}: the boost's quotient field has no rows
    path = write_generators(tmp_path, "full.txt", ["Ya", "e1", "e2", "e3", "e4"])
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "cohomogeneity 0 (orbit dims {4} over 32 samples)" in out
    assert "match: none (not in the catalog)" in out


def test_classify_cohomogeneity_does_not_follow_the_samples(tmp_path, capsys):
    # T4:AN: the one sample at seed 66 lies on a 1-dimensional orbit
    path = write_generators(tmp_path, "an.txt", ["Ya", "Yn1", "Yn2"])
    assert main(["classify", path, "--seed", "66", "--samples", "1"]) == 0
    out = capsys.readouterr().out
    assert "cohomogeneity 1 (orbit dims {3,1} over 1 samples)" in out
    assert "note:" not in out
    assert "match: T4:AN:" in out


def test_classify_identifies_conjugated_family(tmp_path, capsys):
    # the drifting-boost family at lam=1/2, moved off the origin by (0,0,-2,3)
    path = write_generators(tmp_path, "conj.txt", [
        "Ya + 1/2*e1 - 3*e3 + 2*e4",
        "e2",
        "e3 - e4",
    ])
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "cohomogeneity 1" in out
    assert "match: T2:Ya+le1-W2:" in out
    assert "[lam=1/2]" in out
    # modulo the null line e3 - e4 only -2 + 3 of the shift is visible
    assert "normalizing translation: (0,0,1,0)" in out


@pytest.mark.parametrize("lines, match", [
    # T3:nilpotent-pair at lam=1, mu=3 with its decorated generators swapped
    (["Yn2 + e1 + 3*e2", "Yn1 + e2", "e3 - e4"],
     "match: T3:nilpotent-pair: two decorated null rotations over the null line "
     "(screw family) [lam=1, mu=3]"),
    # T3:K1N-l in a basis that mixes the null line into the linear generators
    (["-Yn1 - 2*Yn2 + e3 - e4", "Yn1 - Yn2", "Yk1 + 2*Yn1 + 4*Yn2 - 2*e3 + 2*e4", "Yn2"],
     "match: T3:K1N-l: rotation plus both null rotations, over the null line"),
], ids=["nilpotent-pair-swapped", "K1N-l-mixed"])
def test_classify_identifies_a_record_in_any_basis(lines, match, tmp_path, capsys):
    path = write_generators(tmp_path, "basis.txt", lines)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [match, "  normalizing translation: (0,0,0,0)"]


def test_classify_json_schema(tmp_path, capsys):
    path = write_generators(tmp_path, "k1n.txt", ["Yk1", "Yn1", "Yn2"])
    assert main(["classify", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closed"] is True
    assert data["cohomogeneity"] == 2
    assert data["orbit_dims"] == [2]
    assert [m["entry"] for m in data["matches"]] == ["Excluded:K1N"]


def test_classify_json_not_closed(tmp_path, capsys):
    path = write_generators(tmp_path, "open.txt", ["Yk1", "Yn1"])
    assert main(["classify", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"closed": False, "pair": [0, 1], "bracket": "-Yn2"}


def test_classify_no_match(tmp_path, capsys):
    path = write_generators(tmp_path, "lone.txt", ["e4"])
    assert main(["classify", path]) == 0
    assert "match: none (not in the catalog)" in capsys.readouterr().out


def test_classify_bad_file_is_usage_error(tmp_path, capsys):
    path = write_generators(tmp_path, "bad.txt", ["Yk1 + ???"])
    assert main(["classify", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_dependent_basis_is_usage_error(tmp_path, capsys):
    path = write_generators(tmp_path, "dep.txt", ["Yk1", "2*Yk1"])
    assert main(["classify", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_classify_missing_file_is_usage_error(capsys):
    assert main(["classify", "/no/such/file.txt"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# orbit
# ---------------------------------------------------------------------------


def test_orbit_default_point(capsys):
    assert main(["orbit", "--entry", "T2:SO2xR11"]) == 0
    out = capsys.readouterr().out
    assert "T2:SO2xR11 at (1,2,3,5):" in out
    assert "orbit dimension 3, causal type Lorentzian (2,1,0)" in out
    assert out.count("tangent (") == 3


def test_orbit_honors_point_and_parameters(capsys):
    assert main(["orbit", "--entry", "T2:Yn1+me4-W2", "--mu", "5",
                 "--point", "0,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "at (0,0,0,0):" in out


def test_orbit_json(capsys):
    assert main(["orbit", "--entry", "T1:R3", "--point", "7,0,0,0",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entry"] == "T1:R3"
    assert data["dim"] == 3
    assert data["point"] == ["7", "0", "0", "0"]


def test_orbit_rejects_foreign_parameter(capsys):
    assert main(["orbit", "--entry", "T1:R3", "--lambda", "1"]) == 2
    assert "takes no parameter --lambda" in capsys.readouterr().err


def test_orbit_rejects_inadmissible_parameter(capsys):
    assert main(["orbit", "--entry", "T2:Ya+le1-W2", "--lambda", "0"]) == 2
    assert "outside the admissible range" in capsys.readouterr().err


def test_orbit_is_exact_past_the_float_range(capsys):
    # orbit never leaves the rationals, so only witness and export reject this
    assert main(["orbit", "--entry", "T3:nilpotent-pair", "--lambda", "1e400",
                 "--point", "1e400,0,0,0", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["params"]["lam"] == str(10**400)
    assert data["point"][0] == str(10**400)


def test_orbit_rejects_malformed_point():
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--entry", "T1:R3", "--point", "1,2,3"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def test_witness_solvable_group(capsys):
    assert main(["witness", "--entry", "T4:AN"]) == 0
    out = capsys.readouterr().out
    assert "PASS T4:AN: hyperbolic stabilizer at (0,0,0,0)" in out
    assert "group norms" in out and "image gap" in out


def test_witness_screw_family_json(capsys):
    assert main(["witness", "--entry", "T3:nilpotent-pair", "--mu", "3",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["mechanism"] == "parabolic stabilizer at (0,0,-3/2+1/2*sqrt(13),0)"
    assert data["steps"][0] == 1 and data["steps"][-1] == 1024
    assert data["image_gap"] < 1e-6


def test_witness_on_proper_entry_is_usage_error(capsys):
    assert main(["witness", "--entry", "T1:R3"]) == 2
    assert "acts properly; no escape witness applies" in capsys.readouterr().err


def test_witness_loose_tolerance_passes(capsys):
    assert main(["witness", "--entry", "T4:AN", "--tol", "1e-3"]) == 0
    assert "(tol 0.001)" in capsys.readouterr().out


@pytest.mark.parametrize("entry_id", [e.entry_id for e in catalog() if not e.proper])
def test_every_nonproper_record_passes_the_shortest_ladder(entry_id, capsys):
    """At the floor of --steps, 32, every hyperbolic walk has grown its norm
    past ten times the first (it grows about like n at t_n = log(1+n))."""
    assert main(["witness", "--entry", entry_id, "--steps", "32"]) == 0
    assert capsys.readouterr().out.startswith(f"PASS {entry_id}: ")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_witness_failure_is_a_fail_line(as_json, monkeypatch, capsys):
    def fail(*_args, **_kwargs):
        raise WitnessFailedError("images are not Cauchy: tail gap 0.5")

    monkeypatch.setattr(minkact.cli, "check_witness", fail)
    assert main(["witness", "--entry", "T4:AN", *(["--json"] if as_json else [])]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    if as_json:
        assert json.loads(out) == {"entry": "T4:AN", "pass": False,
                                   "detail": "images are not Cauchy: tail gap 0.5"}
    else:
        assert out.splitlines() == ["FAIL T4:AN: images are not Cauchy: tail gap 0.5"]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_grid(tmp_path, capsys):
    out_path = str(tmp_path / "patch.csv")
    assert main(["export", "--entry", "T1:R3", "--grid", "4",
                 "--out", out_path]) == 0
    assert f"wrote 64 rows to {out_path}" in capsys.readouterr().out
    lines = open(out_path).read().splitlines()
    assert lines[0] == "t1,t2,t3,x,y,z,w"
    assert len(lines) == 65


def test_export_random_sampling_is_seeded(tmp_path, capsys):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert main(["export", "--entry", "T4:AN", "--seed", "7", "--out", a]) == 0
    assert main(["export", "--entry", "T4:AN", "--seed", "7", "--out", b]) == 0
    capsys.readouterr()
    assert open(a).read() == open(b).read()
    assert len(open(a).read().splitlines()) == 33  # header + 32 samples


def test_export_to_stdout(capsys):
    assert main(["export", "--entry", "T1:W3", "--grid", "2", "--out", "-"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "t1,t2,t3,x,y,z,w"
    assert len(lines) == 9
    assert "wrote" not in out


# ---------------------------------------------------------------------------
# bad input: exit 2 with one "error:" line, never a traceback or a check FAIL
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["classify", "{tmp}/zero.txt"],
    ["classify", "{tmp}/latin1.txt"],
    ["witness", "--entry", "T3:nilpotent-pair", "--mu", "1/0"],
    ["orbit", "--entry", "T2:Ya+le1-W2", "--lambda", "1/0"],
    ["export", "--entry", "T4:aK1bA-N", "--a", "1/0", "--out", "-"],
    ["witness", "--entry", "T4:aK1bA-N", "--b", "1/0"],
    ["orbit", "--entry", "T1:R3", "--point", "1,2,3,1/0"],
    ["export", "--entry", "T1:R3", "--grid", "2", "--out", "{tmp}/missing/x.csv"],
    ["export", "--entry", "T1:R3", "--grid", "0", "--out", "{tmp}/x.csv"],
    ["verify", "--entry", "T1:R3", "--samples", "0"],
    ["classify", "{tmp}/zero.txt", "--samples", "-3"],
    ["verify", "--entry", "T2:SO11xR2", "--steps", "8", "--tol", "1e-6"],
    ["witness", "--entry", "T4:AN", "--steps", "4"],
    ["witness", "--entry", "T4:AN", "--tol", "-1"],
    ["witness", "--entry", "T4:AN", "--tol", "nan"],
    ["export", "--entry", "T2:SO11xR2", "--point", "1e400,0,0,0", "--grid", "2", "--out", "-"],
    ["witness", "--entry", "T3:nilpotent-pair", "--lambda", "1e400"],
    ["export", "--entry", "T3:nilpotent-pair", "--lambda", "1e400", "--grid", "2", "--out", "-"],
    ["witness", "--entry", "T3:nilpotent-pair", "--lambda", "1e100"],
    ["witness", "--entry", "T3:nilpotent-pair", "--lambda", "1e-400", "--mu", "-1"],
    ["export", "--entry", "T3:nilpotent-pair", "--lambda", "1.7e308", "--grid", "2", "--out", "-"],
    ["export", "--entry", "T4:aK1bA-N", "--a", "1e154", "--grid", "2", "--out", "-"],
    ["export", "--entry", "T4:aK1bA-N", "--b", "1e30", "--grid", "2", "--out", "-"],
    ["orbit", "--entry", "T1:R3", "--seed", "7"],
    ["witness", "--entry", "T4:AN", "--seed", "7"],
    ["export", "--entry", "T1:R3", "--grid", "2", "--out", "-", "--json"],
    ["classify", "{tmp}/huge_exponent.txt"],
    ["orbit", "--entry", "T1:R3", "--point", "1,2,3,1e100000"],
    ["orbit", "--entry", "T2:Ya+le1-W2", "--lambda", "1e10000000"],
    ["witness", "--entry", "T2:SO11xR2", "--steps", "16"],
    ["witness", "--entry", "T2:SO11xR2", "--steps", "31"],
    ["classify", "{tmp}/empty_term.txt"],
    ["classify", "{tmp}/not_rational.txt"],
    ["classify", "{tmp}/comments.txt"],
    ["classify", "{tmp}/zero.txt", "--samples", "two"],
    ["witness", "--entry", "T4:AN", "--tol", "abc"],
], ids=[
    "classify-zero-denominator", "classify-not-utf8", "witness-mu", "orbit-lambda", "export-a",
    "witness-b", "orbit-point", "export-missing-dir", "export-grid-zero", "verify-samples-0",
    "classify-samples-negative", "verify-takes-no-ladder-options", "witness-steps-4",
    "witness-tol-negative", "witness-tol-nan",
    "export-point-past-float", "witness-lambda-past-float", "export-lambda-past-float",
    "witness-lambda-overflows", "witness-lambda-underflows", "export-lambda-overflows",
    "export-a-overflows", "export-b-overflows", "orbit-seed", "witness-seed", "export-json",
    "classify-coefficient-past-4300-digits", "orbit-point-past-4300-digits",
    "orbit-lambda-exponent-1e10000000",
    # a hyperbolic ladder ending below 32 has not yet grown its norm tenfold
    "witness-steps-16", "witness-steps-31",
    "classify-empty-term", "classify-not-rational", "classify-only-comments",
    "classify-samples-not-integer", "witness-tol-not-number",
])
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    (tmp_path / "zero.txt").write_text("Ya + 1/0*e1\n")
    (tmp_path / "latin1.txt").write_bytes("Ya\n# \u00e9t\u00e9\nYk1\n".encode("latin-1"))
    (tmp_path / "huge_exponent.txt").write_text("Ya + 1e5000*e1\ne2\ne3 - e4\n")
    (tmp_path / "empty_term.txt").write_text("Ya +\n")
    (tmp_path / "not_rational.txt").write_text("x*e1\n")
    (tmp_path / "comments.txt").write_text("# Ya\n\n   # e1\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "1e10000000" in argv:  # unchecked, Fraction would build 10**(10**7): fail fast
        src = str(Path(minkact.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "minkact.cli", *argv], capture_output=True,
                              text=True, timeout=5, env=dict(os.environ, PYTHONPATH=src))
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        out, err = capsys.readouterr()
    assert code == 2
    assert "FAIL" not in out
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert err.splitlines()[-1] == errors[0]
    if "0" in argv:  # a count flag below its floor
        assert "must be at least 1" in errors[0]
    if argv[0] == "classify" and "--samples" not in argv:  # the file is at fault
        assert f"{argv[1]}:" in errors[0]


@pytest.mark.parametrize("argv", [
    ["orbit", "--entry", "T9:nope"],
    ["witness", "--entry", "T9:nope"],
    ["export", "--entry", "T9:nope", "--out", "-"],
    ["witness", "--entry", "T1:R3"],
], ids=["orbit-unknown-entry", "witness-unknown-entry", "export-unknown-entry",
        "witness-proper-entry"])
def test_entry_errors_print_one_error_line_and_no_output(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


REQUEST_MIX = """
import contextlib, io, sys
import minkact.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["witness", "--entry", "T3:nilpotent-pair", "--lambda=-2", "--mu=3"],
                 ["orbit", "--entry", "T2:Ya+le1-W2", "--lambda=1/2", "--point=1,2,3,5"],
                 ["export", "--entry", "T4:aK1bA-N", "--grid", "2", "--out", "-"],
                 ["verify", "--entry", "T3:nilpotent-pair"]):
        minkact.cli.main(argv)
for package in ("numpy", "scipy", "dataclasses", "inspect"):
    print(sorted(m for m in sys.modules if m.split(".")[0] == package))
"""


def test_cli_requests_load_no_numeric_module():
    """The package computes in the standard library alone: importing the
    command line, serving a witness, orbit and export request and verifying
    a record load neither numpy nor scipy, which serve the tests only, nor
    dataclasses and the inspect module it pulls in, which together cost
    about 20 ms of every start-up (the records are NamedTuples)."""
    src = str(Path(minkact.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", REQUEST_MIX], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.splitlines() == ["[]"] * 4

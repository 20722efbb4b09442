"""Golden regression for the full catalog replay.

``verify --json --seed N`` must reproduce the recorded report byte for byte
once every ``elapsed_ms`` timing is removed.  The fixtures record verdicts
and detail strings as they are, failures included, so this test checks
sameness, not success.  The ``T3:N-aK1bA-l`` record fails by design at both
seeds; at seed 866494 the samples also reach the stratum that ``T4:K1AN``
does not declare, so that fixture pins the strata-mismatch path of the
cohomogeneity check.  After an intended change of output, regenerate a
fixture with

    export PYTHONPATH=src
    python -m minkact.cli verify --json --seed 42 \\
        | python tests/test_golden.py > tests/golden/verify_seed42.json

and likewise with 866494 in place of 42 for ``verify_seed866494.json``.

``orbit_points.json`` pins ``orbit --json``, the only output that prints a
tangent basis, at a few points: each case holds the arguments after
``orbit --json`` and the report they printed.  Regenerate a case by running
that command and pasting its output as the case's ``report``.

``classify_cases.json`` pins ``classify --json`` on fixed generator files:
translation conjugates, Lorentz conjugates and non-closed pairs drawn as the
benchmark's classify workload draws them, and one dependent basis.  Each case
holds the file's lines, the exit code and either the printed report or the
error line.  Regenerate a case by writing its lines to a file and running
``classify FILE --json`` on it.

``witness_cases.json`` pins the exit code and output of ``witness`` on every
non-proper default instantiation, twice: as text, rounded to 4 digits, and
with ``--json``, whose ``group_norms``, ``point_gap`` and ``image_gap`` carry
every bit of the float ladder (the form the benchmark's explore workload
prints).  Each case holds the arguments after ``witness``, the exit code and
the printed lines.  Regenerate a case by running ``python -m minkact.cli
witness`` with those arguments and pasting its output as the case's
``output``.

``export_cases.json`` pins the CSV that ``export --out -`` prints: every
record's first default on a 2^3 grid at the point 1/3,2/5,-3/7,5/4; a 4^3
grid, four values of t per generator as in the explore workload, at the same
point on ``T2:SO11xR2`` (a boost and two translations), ``T4:SO31`` (three
rotations) and ``T3:nilpotent-pair`` (null rotations with translation parts);
and three seeded samples on an elliptic, a hyperbolic and a mixed record.
Each case holds the arguments after ``export``, the exit code and the printed
CSV.  Regenerate a case by running ``python -m minkact.cli export`` with those
arguments and pasting its output as the case's ``output``.
"""

import json
import sys
from pathlib import Path

import pytest

from minkact.cli import main

GOLDEN = Path(__file__).parent / "golden"


def without_timings(obj):
    if isinstance(obj, dict):
        return {k: without_timings(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [without_timings(v) for v in obj]
    return obj


def render(payload):
    return json.dumps(without_timings(json.loads(payload)), indent=2) + "\n"


@pytest.mark.parametrize("seed", [42, 866494])
def test_verify_json_matches_golden_fixture(seed, capsys):
    main(["verify", "--json", "--seed", str(seed)])
    fixture = GOLDEN / f"verify_seed{seed}.json"
    assert render(capsys.readouterr().out) == fixture.read_text()


ORBIT_CASES = json.loads((GOLDEN / "orbit_points.json").read_text())


@pytest.mark.parametrize("case", ORBIT_CASES, ids=lambda case: " ".join(case["argv"]))
def test_orbit_json_matches_golden_fixture(case, capsys):
    assert main(["orbit", "--json", *case["argv"]]) == 0
    assert capsys.readouterr().out == json.dumps(case["report"], indent=2) + "\n"


CLASSIFY_CASES = json.loads((GOLDEN / "classify_cases.json").read_text())


@pytest.mark.parametrize("case", CLASSIFY_CASES,
                         ids=[f"{n:02d}-{case['kind']}" for n, case in enumerate(CLASSIFY_CASES)])
def test_classify_json_matches_golden_fixture(case, tmp_path, capsys):
    path = tmp_path / "generators.txt"
    path.write_text("".join(line + "\n" for line in case["generators"]))
    assert main(["classify", str(path), "--json"]) == case["exit"]
    captured = capsys.readouterr()
    if case["exit"] == 0:
        assert captured.out == json.dumps(case["report"], indent=2) + "\n"
    else:
        assert captured.err == case["error"]


WITNESS_CASES = json.loads((GOLDEN / "witness_cases.json").read_text())


@pytest.mark.parametrize("case", WITNESS_CASES, ids=lambda case: " ".join(case["argv"][1:]))
def test_witness_text_matches_golden_fixture(case, capsys):
    assert main(["witness", *case["argv"]]) == case["exit"]
    assert capsys.readouterr().out == case["output"]


EXPORT_CASES = json.loads((GOLDEN / "export_cases.json").read_text())


@pytest.mark.parametrize("case", EXPORT_CASES, ids=lambda case: " ".join(case["argv"][1:-2]))
def test_export_csv_matches_golden_fixture(case, capsys):
    assert main(["export", *case["argv"]]) == case["exit"]
    assert capsys.readouterr().out == case["output"]


if __name__ == "__main__":
    sys.stdout.write(render(sys.stdin.read()))

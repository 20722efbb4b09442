"""Golden regression for the full catalog replay.

``verify --json --seed 42`` must reproduce the recorded report byte for byte
once every ``elapsed_ms`` timing is removed.  The fixture records verdicts
and detail strings as they are, failures included (the ``T3:N-aK1bA-l``
record fails by design), so this test checks sameness, not success.  After
an intended change of output, regenerate the fixture with

    export PYTHONPATH=src
    python -m minkact.cli verify --json --seed 42 \\
        | python tests/test_golden.py > tests/golden/verify_seed42.json
"""

import json
import sys
from pathlib import Path

from minkact.cli import main

FIXTURE = Path(__file__).parent / "golden" / "verify_seed42.json"


def without_timings(obj):
    if isinstance(obj, dict):
        return {k: without_timings(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [without_timings(v) for v in obj]
    return obj


def render(payload):
    return json.dumps(without_timings(json.loads(payload)), indent=2) + "\n"


def test_verify_json_matches_golden_fixture(capsys):
    main(["verify", "--json", "--seed", "42"])
    assert render(capsys.readouterr().out) == FIXTURE.read_text()


if __name__ == "__main__":
    sys.stdout.write(render(sys.stdin.read()))

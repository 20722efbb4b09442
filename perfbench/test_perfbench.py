"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import sys

import oracles
import run
import workloads


def _inputs(tmp_path, name, seed):
    out = tmp_path / name
    out.mkdir()
    passes = [workloads.PASSES[w](seed, k, out) for w in workloads.WORKLOADS for k in (0, 1)]
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    argv = [[r.argv[0]] + [a for a in r.argv[1:] if not a.startswith(str(out))]
            for reqs in passes for r in reqs]
    expect = [r.expect for reqs in passes for r in reqs]
    return files, argv, expect


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first = _inputs(tmp_path, "a", 7)
    assert first == _inputs(tmp_path, "b", 7)
    assert first[0] != _inputs(tmp_path, "c", 8)[0]


def test_generated_files_name_their_source_records(tmp_path):
    requests = workloads.classify_pass(3, 0, tmp_path)
    kinds = [r.expect["kind"] for r in requests]
    assert kinds.count("translation") == kinds.count("lorentz") == len(workloads.RECORDS)
    assert kinds.count("nonclosed") == 2 * len(workloads.NONCLOSED_PAIRS)
    # negative rationals go through '=' so that argparse does not read a flag
    for r in workloads.explore_pass(3, 0, tmp_path):
        assert not any(a.startswith("-") and a[1:2].isdigit() for a in r.argv)


def test_undeclared_strata_are_real():
    sys.path.insert(0, str(run.ROOT / "src"))
    from minkact.catalog import entry_by_id

    for (entry_id, _), (point, dim) in oracles.UNDECLARED_STRATA.items():
        entry = entry_by_id(entry_id)
        params = {k: str(v) for k, v in entry.defaults[0].items()}
        expect = {"entry": entry_id, "params": params, "point": [str(c) for c in point]}
        assert oracles.killing_rank(expect) == dim
        assert dim not in entry.expected_strata(entry.defaults[0])


def test_misses_and_wrong_answers_are_told_apart():
    expect = {"kind": "lorentz", "entry": "T4:AN"}

    def result(matches):
        body = {"closed": True, "cohomogeneity": 1, "matches": matches}
        return {"code": 0, "stdout": json.dumps(body)}

    miss = oracles.judge_classify(result([]), expect)
    wrong = oracles.judge_classify(result([{"entry": "T4:K1AN", "params": {}}]), expect)
    hit = oracles.judge_classify(result([{"entry": "T4:AN", "params": {}}]), expect)
    assert (miss.correct, miss.failed) == (0, False)
    assert (wrong.correct, wrong.failed) == (0, True)
    assert (hit.correct, hit.failed) == (1, False)


def _small_requests(tmp_path):
    classify = workloads.classify_pass(5, 0, tmp_path)[:8]
    explore = workloads.explore_pass(5, 0, tmp_path)[:6]
    return [("classify", r) for r in classify] + [("explore", r) for r in explore]


def test_traced_and_untraced_runs_give_the_same_verdicts(tmp_path):
    runner = run.Runner(tmp_path / "run")
    tagged = _small_requests(runner.inputs)
    requests = [r for _, r in tagged]
    plain = runner.spawn(requests)
    traced = runner.spawn(requests, trace=True)
    for report in (plain, traced):
        judged = [oracles.judge(w, r.argv, res, r.expect)
                  for (w, r), res in zip(tagged, report["results"])]
        assert not any(j.failed for j in judged)
        report["verdicts"] = [j.verdict for j in judged]
    assert plain["verdicts"] == traced["verdicts"]
    assert traced["trace"]["catalog.match_catalog"]["calls"] > 0
    assert "trace" not in plain


def test_tracer_sees_calls_made_through_copied_names(tmp_path):
    runner = run.Runner(tmp_path / "run")
    req = workloads.Request(["verify", "--json", "--entry", "T2:Ya-W2"], {})
    runner.spawn([req], trace=True)
    spans = json.loads((tmp_path / "run" / "spans-0.json").read_text())

    def under(name, ancestor):
        count = 0
        for row in spans:
            parent = row[3]
            while row[0] == name and parent >= 0:
                if spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = spans[parent][3]
        return count

    # char_poly reaches subalgebra through ``from .linalg import char_poly``
    assert under("linalg.char_poly", "subalgebra.one_param_type") > 0
    assert under("linalg.matmul", "linalg.char_poly") > 0
    assert all(row[4] == 0 for row in spans)
    assert {row[0] for row in spans if row[3] == -1} == {"cli.main.verify"}


def test_results_carry_exactly_the_declared_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run("explore", 2, 0, trace)
        assert result["correct"] and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in bench[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared

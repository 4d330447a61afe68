"""The repository tools under ``tools/``."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frobcoord
from frobcoord.tensor import Tensor, frobenius_mu

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code


# a comment alone
def f(x):
    """A function docstring."""
    y = """a string
that is data"""
    return x


class C:
    """A class docstring."""

    size = 1
    """An attribute docstring."""
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    code_lines = _load("code_lines")
    # import, def, y (two lines), return, class, size
    assert code_lines.code_lines(FIXTURE) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    code_lines = _load("code_lines")
    (tmp_path / "b.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  a.py", "     7  b.py", "     8  total", ""]


def test_fingerprint_is_stable_and_sees_a_perturbed_result(monkeypatch):
    fingerprint = _load("fingerprint")
    src = Path(frobcoord.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED="1")
    child = subprocess.run([sys.executable, str(TOOLS / "fingerprint.py"),
                            str(src)], capture_output=True, text=True,
                           env=env, check=True)
    first = json.loads(child.stdout)
    assert fingerprint.fingerprint(frobcoord) == first
    # One entry of one result changes; what was built and planned does not.
    evaluate, calls = frobcoord.evaluator.evaluate, []

    def perturbed(network):
        got = evaluate(network)
        calls.append(network)
        if len(calls) > 1:
            return got
        cells = got.array.copy()
        cells.flat[0] = not cells.flat[0]
        return Tensor(got.wires, cells, got.semiring)

    monkeypatch.setattr(frobcoord.evaluator, "evaluate", perturbed)
    second = fingerprint.fingerprint(frobcoord)
    assert second["results"] != first["results"]
    assert second["networks"] == first["networks"]
    assert second["plans"] == first["plans"]
    assert set(first) == {"networks", "plans", "results", "selftest",
                          "primitives", "random_plans"}
    assert {part for part in first if second[part] != first[part]} == {
        "results"}


def test_fingerprint_sees_a_perturbed_primitive(monkeypatch):
    fingerprint = _load("fingerprint")
    first = fingerprint.fingerprint(frobcoord)
    # One entry of the first copy a primitive makes changes, and nothing
    # that the sentences, the selftest or the planner compute.
    delta, calls = frobcoord.tensor.frobenius_delta, []

    def perturbed(v):
        got = delta(v)
        calls.append(v)
        if len(calls) > 1:
            return got
        cells = got.array.copy()
        cells.flat[0] = not cells.flat[0]
        return Tensor(got.wires, cells, got.semiring)

    monkeypatch.setattr(frobcoord.tensor, "frobenius_delta", perturbed)
    second = fingerprint.fingerprint(frobcoord)
    assert calls
    assert {part for part in first if second[part] != first[part]} == {
        "primitives"}


def test_fingerprint_sees_a_suite_that_stops_catching_the_fault(
        monkeypatch):
    # coordinator-equivalence is made to check the true merge whatever
    # merge it is given: every suite passes as before, and only the run
    # with the fault injected tells the difference.
    fingerprint = _load("fingerprint")
    selftest = frobcoord.selftest

    def digest():
        h = hashlib.sha256()
        fingerprint._selftest(frobcoord, h)
        return h.hexdigest()

    def totals():
        return [(r.name, r.passed, r.total, r.counterexample)
                for r in selftest.run_selftest(**fingerprint.SELFTEST)]

    first, passing = digest(), totals()
    suites = list(selftest._SUITES)
    k = [name for name, _, _ in suites].index("coordinator-equivalence")
    name, real, share = suites[k]
    suites[k] = (name, lambda rng, dims, trials, mu: real(
        rng, dims, trials, frobenius_mu), share)
    monkeypatch.setattr(selftest, "_SUITES", tuple(suites))
    assert totals() == passing
    assert digest() != first


def test_random_networks_reach_every_planner_rule():
    # The random_plans digest covers long hyperedges, matrix and outer
    # product steps, copies onto repeated open wires and each refusal of a
    # malformed key.
    fingerprint = _load("fingerprint")
    plan = frobcoord.evaluator.plan_contraction.__wrapped__
    seen = set()
    for key in fingerprint.random_networks(fingerprint.RANDOM_PLANS):
        holders = {}
        for labs in key[0]:
            for label in set(labs):
                holders[label] = holders.get(label, 0) + 1
        if max(holders.values(), default=0) > \
                frobcoord.evaluator._PAIRED_HOLDERS:
            seen.add("star")
        try:
            got = plan(*key)
        except frobcoord.errors.FrobcoordError as exc:
            seen.add(type(exc).__name__)
            continue
        seen.update(["copy"] if got.copy else [])
        seen.update("outer" for step in got.steps
                    if step.shape_a[::2] == step.shape_b[:2] == (1, 1))
        seen.update("matmul" for step in got.steps if not step.batch)
    assert seen == {"star", "copy", "outer", "matmul", "ShapeMismatch",
                    "DimMismatch"}


def test_ab_runs_alternating_pairs_and_writes_every_run(tmp_path, capsys):
    # An A/A comparison of this tree against itself: the schema, the
    # alternation and the per-pair win counts, not the figures.
    ab = _load("ab")
    root = TOOLS.parent
    out = tmp_path / "bench.json"
    assert ab.main(["--base", str(root), "--change", str(root),
                    "--workload", "vp-chains", "--pairs", "2",
                    "--seconds", "0.3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "peak_rss_mb" in printed and "ops base" in printed
    entry = json.loads(out.read_text())["workloads"]["vp-chains-seed1"]
    assert set(entry) == {"base", "change", "seed", "seconds", "pairs",
                          "spell_s", "summary", "runs"}
    assert entry["base"] == entry["change"]
    assert set(entry["base"]) == {"commit", "dirty"}
    assert entry["spell_s"]["before"] > 0 and entry["spell_s"]["after"] > 0
    assert [(r["pair"], r["side"], r["first"]) for r in entry["runs"]] == [
        (0, "base", True), (0, "change", False),
        (1, "change", True), (1, "base", False)]
    for run in entry["runs"]:
        assert run["result"]["correct"] and run["result"]["failed"] == 0
        assert run["result"]["ops"] >= 100 and run["result"]["rounds"] >= 1
    summary = entry["summary"]
    names = [m["name"] for m in
             json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    for name in names:
        assert set(summary[name]) == {"unit", "better", "bound", "pairs",
                                      "change_wins", "base", "change"}
        assert summary[name]["pairs"] == 2
        assert 0 <= summary[name]["change_wins"] <= 2
        for side in ("base", "change"):
            q = summary[name][side]
            assert q["q1"] <= q["median"] <= q["q3"]
    assert set(summary["ops"]) == {"base", "change"}
    assert summary["failed"] == {"base": 0, "change": 0}
    assert summary["correct"] is True


def test_ab_interleaved_alternates_rounds_in_one_process(tmp_path, capsys):
    # An A/A comparison of this tree against itself in one process: the
    # schema, the alternation and the counts, not the figures.
    ab = _load("ab")
    root = TOOLS.parent
    out = tmp_path / "bench.json"
    before = set(sys.modules)
    assert ab.main(["--base", str(root), "--change", str(root),
                    "--workload", "corpus-bool", "--interleaved",
                    "--pairs", "4", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "tracemalloc peak" in printed and "change won" in printed
    assert "cold ratio" in printed
    entry = json.loads(out.read_text())["workloads"][
        "corpus-bool-seed1-interleaved"]
    assert set(entry) == {"base", "change", "seed", "pairs", "spell_s",
                          "ops_per_round", "summary", "round_ms",
                          "cold_round_ms"}
    assert entry["base"] == entry["change"] and entry["pairs"] == 4
    assert entry["ops_per_round"] > 0
    for rounds in ("round_ms", "cold_round_ms"):
        assert {s: len(ms) for s, ms in entry[rounds].items()} == {
            "base": 4, "change": 4}
    summary = entry["summary"]
    assert set(summary) == {"round_ms", "ratio", "change_wins", "cold",
                            "tracemalloc_peak_bytes", "correct"}
    # Cold rounds, with the caches emptied before each operation, are
    # summarised as the warm ones are.
    assert set(summary["cold"]) == {"round_ms", "ratio", "change_wins"}
    for rounds in (summary, summary["cold"]):
        for side in ("base", "change"):
            r = rounds["round_ms"][side]
            assert 0 < r["best"] <= r["q1"] <= r["median"] <= r["q3"]
            assert r["iqr"] == r["q3"] - r["q1"]
        q = rounds["ratio"]
        assert 0 < q["q1"] <= q["median"] <= q["q3"]
        assert 0 <= rounds["change_wins"] <= 4
    for side in ("base", "change"):
        assert summary["tracemalloc_peak_bytes"][side] > 0
    assert summary["correct"] == {"base": True, "change": True}
    # Both trees were imported under their own names; the names that
    # bench/run.py imports are as they were.
    loaded = set(sys.modules) - before
    assert {"frobcoord_base", "frobcoord_change"} <= loaded
    assert not loaded & {"run", "oracle", "tracing", "workloads"}


def test_ab_interleaved_takes_named_micro_targets(tmp_path, capsys):
    # A/A comparisons of the micro-targets in one process: a round is one
    # call, checked once per side first, and the key holds no seed.  The
    # schema is the workloads' one.
    ab = _load("ab")
    root = TOOLS.parent
    out = tmp_path / "bench.json"
    assert set(ab.MICRO_TARGETS) == {"selftest", "coordinator", "reduce",
                                     "plan"}
    assert ab.main(["--base", str(root), "--change", str(root),
                    "--workload", "coordinator", "--interleaved",
                    "--pairs", "2", "--out", str(out)]) == 0
    assert "recorded as coordinator-interleaved" in capsys.readouterr().out
    entry = json.loads(out.read_text())["workloads"][
        "coordinator-interleaved"]
    assert set(entry) == {"base", "change", "seed", "pairs", "spell_s",
                          "ops_per_round", "summary", "round_ms",
                          "cold_round_ms"}
    assert entry["ops_per_round"] == 1
    for rounds in ("round_ms", "cold_round_ms"):
        assert {s: len(ms) for s, ms in entry[rounds].items()} == {
            "base": 2, "change": 2}
    summary = entry["summary"]
    assert summary["correct"] == {"base": True, "change": True}
    # A round holds the 4**12 float64 cells of the coordinator.
    for side in ("base", "change"):
        assert summary["tracemalloc_peak_bytes"][side] >= 8 * 4 ** 12
    # The chain targets: reduce, and the planner without its cache, each
    # checked on its first call per side.
    for target in ("reduce", "plan"):
        assert ab.main(["--base", str(root), "--change", str(root),
                        "--workload", target, "--interleaved", "--pairs",
                        "2", "--out", str(out)]) == 0
        entry = json.loads(out.read_text())["workloads"][
            f"{target}-interleaved"]
        assert entry["ops_per_round"] == 1
        assert entry["summary"]["correct"] == {"base": True, "change": True}
    # The pairs mode runs bench/run.py, which knows no micro-target.
    with pytest.raises(SystemExit):
        ab.main(["--base", str(root), "--change", str(root), "--workload",
                 "selftest", "--pairs", "1", "--out", str(out)])
    assert "runs only with --interleaved" in capsys.readouterr().err


def test_ab_never_replaces_a_recorded_entry():
    # A repeated key gets the first free -set<N> suffix.
    ab = _load("ab")
    recorded = {"cli-eval-seed1": {}, "cli-eval-seed1-set2": {},
                "cli-eval-seed1-set4": {}, "vp-chains-seed1-interleaved": {}}
    assert ab.free_key(recorded, "cli-eval-seed1") == "cli-eval-seed1-set3"
    assert ab.free_key(recorded, "vp-chains-seed1-interleaved") == \
        "vp-chains-seed1-interleaved-set2"
    assert ab.free_key(recorded, "cli-eval-seed2") == "cli-eval-seed2"
    assert ab.free_key({}, "cli-eval-seed1") == "cli-eval-seed1"

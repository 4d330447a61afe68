"""The benchmark's own checks: right outputs pass, a changed entry fails.

    PYTHONPATH=src python -m pytest -q bench

Each workload's round runs once per seed through frobcoord (cli-eval
through ``frobcoord.cli.main`` in this process, plus one child process).
Every output must pass its checker, and the same output with one entry
changed must not.
"""

import json
import re

import numpy as np
import pytest

import oracle
import run
from workloads import TARGET, WORKLOADS

fc = run.import_frobcoord()


@pytest.fixture(scope="module",
                params=[(w, s) for w in WORKLOADS for s in (1, 2)],
                ids=lambda p: f"{p[0]}-seed{p[1]}")
def outputs(request, tmp_path_factory):
    name, seed = request.param
    workload = WORKLOADS[name](seed)
    path = tmp_path_factory.mktemp(name) / "lexicon.lex"
    path.write_text(workload.lexicon_text, encoding="utf-8")
    runner = run.Runner(fc, path)
    runner.lexicon = fc.lexicon.load_lexicon(path)
    run_op = runner.main if workload.via_cli else runner.sentence
    return runner, [(op, run_op(op)[1]) for op in workload.ops]


def changed(op, out):
    """``out`` with one entry changed."""
    if out is run.UNGRAMMATICAL:
        return np.zeros(1)  # a result where a refusal was due
    if isinstance(out, np.ndarray):
        out = out.copy()
        if out.dtype == bool:
            out[0] = not out[0]
        else:
            out[0] += 1e-6 * np.max(np.abs(out))
        return out
    if op.command == "check":
        # Move the first link's right end one wire along.
        return re.sub(r"–(\d+)\.(\d+)\)",
                      lambda m: f"–{m[1]}.{int(m[2]) + 1})", out, count=1)
    doc = json.loads(out)
    doc["entries"][0] = 1 - doc["entries"][0] if doc["semiring"] == "bool" \
        else doc["entries"][0] * (1 + 1e-6) + 1e-6
    return json.dumps(doc)


def test_every_output_passes(outputs):
    _, results = outputs
    problems = [(op.label, run.check(op, out)) for op, out in results]
    assert [p for p in problems if p[1]] == []


def test_one_changed_entry_is_caught(outputs):
    _, results = outputs
    missed = [op.label for op, out in results
              if run.check(op, changed(op, out)) is None]
    assert missed == []


def test_grammatical_row_is_not_proved_ungrammatical():
    op = next(op for op in WORKLOADS["vp-chains"](1).ops
              if op.expected is not None)
    assert oracle.check_ungrammatical(op.row, TARGET, raised=True)


def test_child_process_output_passes(tmp_path):
    workload = WORKLOADS["cli-eval"](1)
    path = tmp_path / "lexicon.lex"
    path.write_text(workload.lexicon_text, encoding="utf-8")
    runner = run.Runner(fc, path)
    for op in workload.ops[:3]:
        _, out = runner.child(op)
        assert run.check(op, out) is None
        assert run.check(op, changed(op, out)) is not None


def test_splitmix_matches_the_lexicon_stream():
    stream = fc.SplitMix64(12345)
    expected = [stream.next_unit() for _ in range(1000)]
    assert oracle.splitmix_units(12345, 1000).tolist() == expected

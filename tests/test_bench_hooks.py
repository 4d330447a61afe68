"""The benchmark's tracer (bench/tracing.py) wraps frobcoord functions by
the names through which frobcoord calls them.  These tests keep those
names, and the CLI's calls through them, in place."""

import sys
from pathlib import Path

import pytest

import frobcoord
import frobcoord.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

LEX = """#type n 2
#type s 2
john : n = [1, 0]
sleeps : n.r s = @random(1)
snores : n.r s = @random(2)
and : s.r n.r.r n.r s s.l n = @conj
"""


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


@pytest.fixture(scope="module")
def lex_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("hooks") / "hooks.lex"
    path.write_text(LEX, encoding="utf-8")
    return str(path)


def test_every_patch_point_resolves(tracing):
    for obj, attr, name, _ in tracing.patch_points(frobcoord):
        assert callable(getattr(obj, attr, None)), f"{name}: {obj!r}.{attr}"


@pytest.mark.parametrize("command", ["check", "derive", "eval"])
def test_cli_calls_go_through_the_patch_points(tracing, lex_path, capsys,
                                               command):
    tracer = tracing.Tracer(tracing.patch_points(frobcoord))
    with tracer.installed(0):
        assert frobcoord.cli.main([command, lex_path, "john", "sleeps",
                                   "and", "snores"]) == 0
    assert capsys.readouterr().out
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("pregroup.reduce") == 1
    assert names.count("lexicon.load_lexicon") == 1
    assert names.count("evaluator.evaluate_sentence") == (command == "eval")

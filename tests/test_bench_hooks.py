"""The benchmark's tracer (bench/tracing.py) wraps frobcoord functions by
the names through which frobcoord calls them.  These tests keep those
names, and the CLI's calls through them, in place."""

import sys
from pathlib import Path

import pytest

import frobcoord
import frobcoord.cli
from frobcoord.evaluator import evaluate_sentence
from frobcoord.lexicon import parse_lexicon

BENCH = Path(__file__).resolve().parent.parent / "bench"

LEX = """#type n 2
#type s 2
john : n = [1, 0]
sleeps : n.r s = @random(1)
snores : n.r s = @random(2)
and : s.r n.r.r n.r s s.l n = @conj
"""

SVO_LEX = """#type n 3
#type s 2
men : n = @random(1)
women : n = @random(2)
football : n = @random(3)
watch : n.r s n.l = @random(4)
knit : n.r s = @random(5)
and_s : s.r s s.l = @conj
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


@pytest.mark.parametrize("semiring", ["real", "bool"])
@pytest.mark.parametrize("text,sentence,mode,calls", [
    (LEX, "john sleeps and snores and sleeps", "explicit", 7),
    (LEX, "john sleeps and snores and sleeps", "closed-form", 0),
    (SVO_LEX, "men watch football and_s women knit", "explicit", 5),
    (SVO_LEX, "men watch football and_s women knit", "closed-form", 3),
], ids=["vp-explicit", "vp-closed-form", "svo-explicit", "svo-closed-form"])
def test_evaluate_hands_matmul_two_matrices(tracing, monkeypatch, semiring,
                                            text, sentence, mode, calls):
    # The tracer's semiring.matmul measure unpacks two 2-D shapes, and the
    # benchmark compares matmul call counts across versions: both hold
    # only while evaluate calls matmul on matrices, as often as before.
    lex = parse_lexicon(f"#semiring {semiring}\n" + text)
    sr, shapes = lex.semiring, []
    plain = type(sr).matmul

    def checked(a, b):
        shapes.append((a.ndim, b.ndim))
        return plain(sr, a, b)

    monkeypatch.setattr(sr, "matmul", checked)
    tracer = tracing.Tracer(tracing.patch_points(frobcoord))
    with tracer.installed(0):
        evaluate_sentence(sentence.split(), lex, "s", mode=mode)
    assert shapes == [(2, 2)] * calls
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("semiring.matmul") == calls
    assert names.count("evaluator.evaluate") == 1

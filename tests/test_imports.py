"""What each command imports, seen from a child process's ``sys.modules``.

``check`` and ``derive`` need types alone, so they never load numpy,
``dataclasses`` or ``inspect``; ``eval`` loads the array layer but neither
``selftest`` nor ``coordination``; a bare ``import frobcoord`` loads no
numpy and still serves every public name on first use.
"""

import json
import subprocess
import sys

import pytest

import frobcoord

# The shape of the benchmark's cli-eval lexicon: seeded words at n = s = 16
# and dense coordinators that no command builds.
RANDOM_LEX = """#semiring real
#type n 16
#type s 16
john : n = @random(1)
mary : n = @random(2)
sleeps : n.r s = @random(3)
snores : n.r s = @random(4)
likes : n.r s n.l = @random(5)
and : s.r n.r.r n.r s s.l n = @conj
and_s : s.r s s.l = @conj
"""

LITERAL_LEX = """#semiring {carrier}
#type n 2
#type s 2
john : n = [1, 0]
mary : n = [0, 1]
sleeps : n.r s = [1, 0, 0, 1]
snores : n.r s = [0, 1, 1, 0]
likes : n.r s n.l = [1, 0, 0, 1, 0, 1, 1, 0]
is : n.r n = @identity
and : s.r n.r.r n.r s s.l n = @conj
"""

LEXICONS = {"random": RANDOM_LEX,
            "literal-real": LITERAL_LEX.format(carrier="real"),
            "literal-bool": LITERAL_LEX.format(carrier="bool")}

SENTENCES = [["john", "sleeps", "and", "snores"],
             ["john", "likes", "mary"],
             ["sleeps", "john"]]

CHILD = """
import contextlib, io, json, sys
from frobcoord.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def child(code, *argv):
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def lex_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    paths = {}
    for name, text in LEXICONS.items():
        paths[name] = root / f"{name}.lex"
        paths[name].write_text(text, encoding="utf-8")
    paths["identity"] = paths["literal-real"]
    return paths


@pytest.mark.parametrize("lexicon", list(LEXICONS) + ["identity"])
@pytest.mark.parametrize("command", [["check"], ["derive"],
                                     ["check", "--all", "--cap", "3"]],
                         ids=["check", "derive", "check-all"])
def test_check_and_derive_never_import_numpy(lex_paths, lexicon, command):
    sentences = ([["john", "is", "mary"]] if lexicon == "identity"
                 else SENTENCES)
    for words in sentences:
        got = child(CHILD, command[0], str(lex_paths[lexicon]), *words,
                    *command[1:], *(["--target", "n"] if "is" in words
                                    else []))
        assert got["code"] in (0, 1)
        assert "numpy" not in got["modules"], (command, words)
        assert "frobcoord.evaluator" not in got["modules"]
        # A derivation is a plain class: dataclasses would load inspect.
        assert {"dataclasses", "inspect"}.isdisjoint(got["modules"])


@pytest.mark.parametrize("mode", [["--mode", "explicit"],
                                  ["--mode", "closed-form"], ["--compare"]],
                         ids=["explicit", "closed-form", "compare"])
def test_eval_imports_neither_selftest_nor_coordination(lex_paths, mode):
    got = child(CHILD, "eval", str(lex_paths["random"]), *SENTENCES[0],
                *mode)
    assert got["code"] == 0
    assert "numpy" in got["modules"]
    assert "frobcoord.selftest" not in got["modules"]
    assert "frobcoord.coordination" not in got["modules"]


def test_a_bare_import_loads_no_numpy_and_serves_every_name():
    names = [*frobcoord.__all__, "errors", "evaluator", "lexicon", "cli"]
    got = child("import json, sys\nimport frobcoord\n"
                "before = sorted(sys.modules)\n"
                "missing = [n for n in sys.argv[1:]\n"
                "           if getattr(frobcoord, n, None) is None]\n"
                "print(json.dumps({'modules': before, 'code': missing}))",
                *names)
    assert "numpy" not in got["modules"]
    assert [m for m in got["modules"] if m.startswith("frobcoord.")] == []
    assert got["code"] == []


def test_star_import_binds_all():
    scope = {}
    exec("from frobcoord import *", scope)
    assert set(frobcoord.__all__) <= set(scope)
    assert scope["evaluate_sentence"] is frobcoord.evaluator.evaluate_sentence
    assert scope["Wire"] is frobcoord.tensor.Wire
    assert scope["SpaceAssignment"] is frobcoord.evaluator.SpaceAssignment


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        frobcoord.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        frobcoord.cli.no_such_name

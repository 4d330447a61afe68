"""A fuzz of the CLI, in process: mutated lexicon text and argument lists
for ``check``, ``derive`` and ``eval``, and argument lists and seeds for
``selftest``.

Every run must end in exit 0, 1 or 2 with no exception escaping
:func:`frobcoord.cli.main` (argparse's ``SystemExit(2)`` aside) and no
``RuntimeWarning``.  Dimensions stay at 1 or 2, and the mutations insert
no digit, so every array stays small; long rows and long targets of
d = 1 nouns reach numpy's axis limit.  A ``selftest`` that runs does at
most two trials.
"""

import contextlib
import io
import json
import os
import warnings
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobcoord.cli import main
from frobcoord.errors import FrobcoordError
from frobcoord.lexicon import parse_lexicon
from frobcoord.tensor import MAX_AXES

LEXICONS = [
    """#type n 2
#type s 2
john : n = [1, 0]
mary : n = @random(3)
sleeps : n.r s = @random(1)
likes : n.r s n.l = @random(2)
is : n.r n = @identity
and : s.r n.r.r n.r s s.l n = @conj
and_n : n.r n n.l = @conj
""",
    """#semiring bool
#type n 2
#type s 1
red : n n.l = [1, 0, 1, 1]
blue : n n.l = [0, 1, 1, 1]
and : n n.r n n.l n.l.l n.l = @conj
car : n = [1, 1]
sleeps : n.r s = [1, 0]
so : s.r s = [1]
and_s : s s.r s s.l s.l.l s.l = @conj
""",
    """#type n 1
#type s 1
john : n = [1]
big : n = [1e308]
neg : n.r s = [-1e308]
and : n.r n n.l = @conj
wide : """ + " ".join(["n"] * (MAX_AXES + 1)) + """ = [1]
""",
]

WORDS = ["john", "mary", "sleeps", "likes", "is", "and", "and_n", "red",
         "blue", "car", "so", "and_s", "big", "neg", "nobody"]
TYPES = ["s", "n", "n.r s", "n n.l", "s.r s", "n.l.l", "1", "n.x", "q",
         "n.r.r.l"]
# Characters a mutation may insert: the syntax, but no digit.
ALPHABET = " \n.:=[],@#-elrnsx()é\t\x00"


def mutated(draw, text):
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "line"]))
        if kind == "insert":
            text = text[:pos] + draw(st.sampled_from(ALPHABET)) + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + draw(st.integers(1, 4)):]
        else:  # repeat a line
            lines = text.splitlines(keepends=True)
            text += lines[pos % len(lines)] if lines else ""
    return text


@st.composite
def cases(draw):
    """(lexicon text, argument list, largest dimension allowed)."""
    command = draw(st.sampled_from(["check", "derive", "eval"]))
    if draw(st.integers(0, 2)) == 0:
        # A long row and target of d = 1 nouns, near numpy's axis limit.
        text, max_dim = LEXICONS[-1], 1
        count = draw(st.integers(MAX_AXES - 1, MAX_AXES + 2))
        words = draw(st.sampled_from([["john"] * count, ["wide"]]))
        target = " ".join(["n"] * (count + draw(st.sampled_from(
            [0, 0, 0, -1, 1]))))
    else:
        text, max_dim = draw(st.sampled_from(LEXICONS)), 2
        words = draw(st.lists(st.sampled_from(WORDS), max_size=8))
        target = " ".join(draw(st.lists(st.sampled_from(TYPES),
                                        max_size=3)))
    args = [command, "LEXICON", *words, "--target", target]
    flags = {"check": ["--all", "--ascii-diagram", "--cap=1", "--cap=0"],
             "derive": ["--all", "--cap=2"],
             "eval": ["--mode=closed-form", "--mode=explicit", "--compare",
                      "--format=json", "--mode=dense"]}[command]
    args += draw(st.lists(st.sampled_from(flags), max_size=2))
    return mutated(draw, text), args, max_dim


@pytest.fixture(scope="module")
def lexicon_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.lex"


def run_main(args, text=None):
    """``main(args)`` under the exit-code contract, with the lexicon
    ``text`` if any: (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
                assert code == 2, args
    assert code in (0, 1, 2), (args, text)
    if code == 2:
        assert err.getvalue().startswith(("error:", "usage:")), err.getvalue()
    return code, out.getvalue()


@given(cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_fails_only_with_its_exit_codes(lexicon_path, case):
    text, args, max_dim = case
    try:
        dims = parse_lexicon(text).spaces.as_dict().values()
    except FrobcoordError:  # main must report it
        dims = ()
    # Deletions can join two digits.  Arrays stay small: a long row of
    # d = 2 nouns would ask for 2**64 cells.
    assume(max(dims, default=1) <= max_dim)
    lexicon_path.write_text(text, encoding="utf-8")
    run_main([str(lexicon_path) if a == "LEXICON" else a for a in args],
             text)


# Well-formed and malformed values of selftest's integer arguments.
DIMS = (["1", "2", "02"], ["0", "-1", "", "x", "1.0", "3.5"])
TRIALS = (["1", "2"], ["0", "-3", "x", "", "1.5"])
SEEDS = (["0", "7", "-0", str(2 ** 64 - 1), str(2 ** 64), str(2 ** 70),
          " 3"], ["-1", "-5", "x", "", "1.5", "0x10", "1e3"])


def pick(draw, values):
    """A well-formed value three times in four."""
    well_formed, malformed = values
    return draw(st.sampled_from(malformed if draw(st.integers(0, 3)) == 0
                                else well_formed))


@st.composite
def selftest_cases(draw):
    """(argument list, FROBCOORD_SEED or None).  --dims and --trials are
    always given, so a run that starts stays small."""
    dims = [pick(draw, DIMS) for _ in range(draw(st.integers(1, 2)))]
    args = ["selftest", "--dims", ",".join(dims), "--trials",
            pick(draw, TRIALS)]
    if draw(st.booleans()):
        args += ["--seed", pick(draw, SEEDS)]
    args += draw(st.lists(st.sampled_from(["--format=json", "--format=plain",
                                           "--format=xml", "--inject-fault"]),
                          max_size=2))
    return args, pick(draw, SEEDS) if draw(st.booleans()) else None


@given(selftest_cases())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_selftest_fails_only_with_its_exit_codes(case):
    args, env_seed = case
    env = {k: v for k, v in os.environ.items() if k != "FROBCOORD_SEED"}
    if env_seed is not None:
        env["FROBCOORD_SEED"] = env_seed
    with mock.patch.dict(os.environ, env, clear=True):
        code, out = run_main(args)
    if code == 2:
        return
    # The suites pass unless the merge is corrupted.
    assert code == (1 if "--inject-fault" in args else 0), args
    seed = args[args.index("--seed") + 1] if "--seed" in args \
        else env_seed or "0"
    formats = [a.split("=")[1] for a in args if a.startswith("--format=")]
    if formats[-1:] == ["json"]:
        report = json.loads(out)
        assert report["seed"] == int(seed)
        assert report["ok"] is (code == 0)
    else:
        assert out.splitlines()[0] == f"selftest: seed={int(seed)}"

import json
import os
import re
import subprocess
import sys

import pytest

from frobcoord.lexicon import parse_lexicon
from frobcoord.tensor import MAX_AXES

LEX = """#semiring real
#type n 2
#type s 3
mary : n = [1.0, 0.0]
john : n = [0.0, 1.0]
musicals : n = [0.5, 0.5]
likes : n.r s n.l = @random(7)
sleeps : n.r s = @random(1)
snores : n.r s = @random(2)
and : s.r n.r.r n.r s s.l n = @conj
"""


@pytest.fixture(scope="module")
def lex_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "demo.lex"
    path.write_text(LEX, encoding="utf-8")
    return str(path)


def run(*args, **env):
    """Run the CLI in a child process.

    The child inherits this process's environment, so ``frobcoord`` is
    importable whether it is installed or found through ``PYTHONPATH``.
    ``FROBCOORD_SEED`` is dropped so a value set in the calling shell cannot
    change the seed; pass it as a keyword to set it.
    """
    child_env = {k: v for k, v in os.environ.items()
                 if k != "FROBCOORD_SEED"}
    child_env.update(env)
    return subprocess.run([sys.executable, "-m", "frobcoord", *args],
                          capture_output=True, text=True, timeout=120,
                          env=child_env)


def test_check_grammatical(lex_path):
    proc = run("check", lex_path, "mary", "likes", "musicals", "--target",
               "s")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(0.0–1.0) (1.2–2.0)"


def test_check_ungrammatical(lex_path):
    proc = run("check", lex_path, "likes", "mary", "--target", "s")
    assert proc.returncode == 1
    assert "ungrammatical" in proc.stdout


def test_check_unknown_word(lex_path):
    proc = run("check", lex_path, "mary", "flies")
    assert proc.returncode == 2
    assert "flies" in proc.stderr


def test_check_missing_lexicon():
    proc = run("check", "/no/such/file.lex", "mary")
    assert proc.returncode == 2
    assert proc.stderr


def test_check_all_lists_every_derivation(lex_path):
    proc = run("check", lex_path, "john", "sleeps", "--all")
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == ["(0.0–1.0)"]


def test_check_all_on_a_twenty_conjunct_chain(lex_path):
    words = ["john", "sleeps"] + ["and", "snores"] * 19
    proc = run("check", lex_path, *words, "--all", "--cap", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 5 and len(set(lines)) == 5


def test_check_ascii_diagram(lex_path):
    proc = run("check", lex_path, "mary", "likes", "musicals",
               "--ascii-diagram")
    assert proc.returncode == 0
    assert "└" in proc.stdout and "┘" in proc.stdout
    assert "mary" in proc.stdout.splitlines()[1]


def test_derive_prints_diagram(lex_path):
    proc = run("derive", lex_path, "john", "sleeps", "and", "snores")
    assert proc.returncode == 0
    assert "─" in proc.stdout


def test_derive_is_check_with_diagrams_and_blank_lines(lex_path):
    words = ["john", "sleeps", "and", "snores", "and", "sleeps"]
    check = run("check", lex_path, *words, "--all", "--ascii-diagram")
    derive = run("derive", lex_path, *words, "--all")
    assert check.returncode == derive.returncode == 0
    blocks = []  # one per derivation; each starts at its links line
    for line in check.stdout.splitlines():
        if line.startswith("("):
            blocks.append([])
        blocks[-1].append(line)
    assert len(blocks) > 1
    assert derive.stdout == "\n\n".join("\n".join(b) for b in blocks) + "\n"


def test_eval_plain_has_expected_width(lex_path):
    proc = run("eval", lex_path, "john", "sleeps")
    assert proc.returncode == 0
    assert len(proc.stdout.split()) == 3  # d_s entries


def test_eval_ungrammatical_exit(lex_path):
    proc = run("eval", lex_path, "sleeps", "john")
    assert proc.returncode == 1
    assert "ungrammatical" in proc.stderr


def test_eval_modes_and_compare(lex_path):
    explicit = run("eval", lex_path, "john", "sleeps", "and", "snores",
                   "--mode", "explicit")
    closed = run("eval", lex_path, "john", "sleeps", "and", "snores",
                 "--mode", "closed-form")
    assert explicit.returncode == closed.returncode == 0
    a = [float(x) for x in explicit.stdout.split()]
    b = [float(x) for x in closed.stdout.split()]
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-10

    compare = run("eval", lex_path, "john", "sleeps", "and", "snores",
                  "--compare")
    assert compare.returncode == 0
    label, value = compare.stdout.split()
    assert label == "max-abs-diff"
    assert float(value) < 1e-10


@pytest.mark.parametrize("sr", ["real", "bool"])
def test_eval_compare_prints_json(tmp_path, sr):
    text = LEX.replace("#semiring real", f"#semiring {sr}")
    if sr == "bool":
        text = text.replace("1.0", "1").replace("0.0", "0").replace(
            "[0.5, 0.5]", "[1, 1]")
    path = tmp_path / f"{sr}.lex"
    path.write_text(text, encoding="utf-8")
    proc = run("eval", str(path), "john", "sleeps", "and", "snores",
               "--compare", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    diff = json.loads(proc.stdout)["max_abs_diff"]
    # On booleans the difference is the count of differing entries.
    assert diff == 0 and type(diff) is (float if sr == "real" else int)


def test_eval_json_round_trips_as_lexicon_literal(lex_path):
    proc = run("eval", lex_path, "john", "sleeps", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["semiring"] == "real"
    assert [w["base"] for w in payload["wires"]] == ["s"]
    literal = json.dumps(payload["entries"])
    text = f"#type s {payload['wires'][0]['dim']}\nresult : s = {literal}\n"
    lex = parse_lexicon(text)
    assert lex["result"].tensor.flat.tolist() == payload["entries"]


def test_selftest_ok():
    proc = run("selftest", "--trials", "4", "--dims", "1,2,3")
    assert proc.returncode == 0
    assert "selftest: OK" in proc.stdout
    assert "frobenius-axioms" in proc.stdout


def test_selftest_fault_injection_fails_with_counterexample():
    proc = run("selftest", "--trials", "4", "--dims", "2,3",
               "--inject-fault")
    assert proc.returncode == 1
    assert "counterexample" in proc.stdout
    assert "selftest: FAILED" in proc.stdout


@pytest.mark.parametrize("fault", [False, True], ids=["ok", "fault"])
def test_selftest_json_schema(fault):
    proc = run("selftest", "--trials", "4", "--dims", "2,3", "--seed", "5",
               "--format", "json", *(["--inject-fault"] if fault else []))
    assert proc.returncode == (1 if fault else 0)
    report = json.loads(proc.stdout)
    assert set(report) == {"seed", "ok", "suites"}
    assert report["seed"] == 5
    assert report["ok"] is not fault
    assert len(report["suites"]) == 8
    for suite in report["suites"]:
        assert set(suite) == {"name", "passed", "total", "seconds",
                              "counterexample"}
        assert isinstance(suite["name"], str)
        assert 0 <= suite["passed"] <= suite["total"]
        assert suite["seconds"] >= 0
        passed = suite["passed"] == suite["total"]
        assert (suite["counterexample"] is None) is passed
        if not passed:
            assert isinstance(suite["counterexample"], str)
    assert report["ok"] is all(
        s["counterexample"] is None for s in report["suites"])
    assert "frobenius-axioms" in [s["name"] for s in report["suites"]]


DITRANSITIVE_LEX = """#semiring real
#type n 2
#type s 2
bank : n = @random(20)
mary : n = @random(21)
john : n = @random(22)
loan : n = @random(23)
granted : n.r s n.l n.l = @random(24)
denied : n.r s n.l n.l = @random(25)
but : n s.r n.r.r n.r s n.l n.l.l s.l n = @conj
"""


def test_eval_ditransitive_sentence_compare(tmp_path):
    path = tmp_path / "ditransitive.lex"
    path.write_text(DITRANSITIVE_LEX, encoding="utf-8")
    words = ["bank", "granted", "mary", "but", "denied", "john", "loan"]
    proc = run("eval", str(path), *words, "--compare")
    assert proc.returncode == 0
    assert float(proc.stdout.split()[-1]) < 1e-10


def test_selftest_degenerate_dims():
    proc = run("selftest", "--trials", "3", "--dims", "1")
    assert proc.returncode == 0
    assert "selftest: OK" in proc.stdout


def _untimed(stdout):
    return re.sub(r" \(\d+\.\d+ s\)", "", stdout)


def test_selftest_seed_env_override():
    plain = run("selftest", "--trials", "2", "--dims", "2",
                FROBCOORD_SEED="123")
    assert plain.returncode == 0
    assert "selftest: OK" in plain.stdout
    assert plain.stdout.splitlines()[0] == "selftest: seed=123"
    assert re.search(r"^frobenius-axioms: \d+/\d+ pass \(\d+\.\d+ s\)$",
                     plain.stdout, re.MULTILINE)

    # Under --inject-fault the counterexamples print the seed and random
    # tensor entries drawn from it, so the output shows which seed was used.
    faulty = ("selftest", "--trials", "2", "--dims", "2", "--inject-fault")
    from_env = run(*faulty, FROBCOORD_SEED="123")
    from_flag = run(*faulty, "--seed", "123")
    default = run(*faulty)
    assert from_env.returncode == from_flag.returncode == 1
    assert "seed=123" in from_env.stdout
    assert _untimed(from_env.stdout) == _untimed(from_flag.stdout)
    assert "seed=0" in default.stdout
    assert _untimed(from_env.stdout) != _untimed(default.stdout)


def test_malformed_seed_env_only_affects_selftest(lex_path):
    proc = run("selftest", "--trials", "1", "--dims", "1",
               FROBCOORD_SEED="abc")
    assert proc.returncode == 2
    assert "invalid int value" in proc.stderr
    assert "Traceback" not in proc.stderr

    words = ("check", lex_path, "mary", "likes", "musicals")
    bad, clean = run(*words, FROBCOORD_SEED="abc"), run(*words)
    assert bad.returncode == clean.returncode == 0
    assert (bad.stdout, bad.stderr) == (clean.stdout, clean.stderr)


@pytest.mark.parametrize("args, env", [
    (("--seed", "-1"), {}),
    (("--seed", "-1", "--format", "json"), {}),
    ((), {"FROBCOORD_SEED": "-5"}),
    (("--format", "json"), {"FROBCOORD_SEED": "-5"}),
], ids=["flag", "flag-json", "env", "env-json"])
def test_negative_seed_is_a_usage_error(args, env):
    proc = run("selftest", "--trials", "1", "--dims", "1", *args, **env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert "expected a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("selftest", "--dims", "x"),
    ("selftest", "--dims", "2,,3"),
    ("check", "LEX", "john", "sleeps", "--all", "--cap", "0"),
    ("derive", "LEX", "john", "sleeps", "--all", "--cap", "0"),
    ("selftest", "--trials", "0"),
    ("selftest", "--trials", "-3"),
], ids=["dims-x", "dims-empty-item", "check-cap-0", "derive-cap-0",
        "trials-0", "trials-negative"])
def test_malformed_counts_are_usage_errors(lex_path, args):
    proc = run(*(lex_path if a == "LEX" else a for a in args))
    assert proc.returncode == 2
    assert "expected a positive integer" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_rejects_non_finite_literal(tmp_path):
    path = tmp_path / "nan.lex"
    path.write_text("#type s 2\nbad : s = [NaN, Infinity]\n",
                    encoding="utf-8")
    proc = run("eval", str(path), "bad")
    assert proc.returncode == 2
    assert "line 2" in proc.stderr and "finite" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_overflowing_meaning_is_an_error_exit(tmp_path):
    path = tmp_path / "huge.lex"
    path.write_text("#type n 2\n#type s 1\n"
                    "john : n = [1e308, 1e308]\n"
                    "sleeps : n.r s = [1e308, -1e308]\n"
                    "snores : n.r s = [1e308, 1e308]\n"
                    "and : s.r n.r.r n.r s s.l n = @conj\n", encoding="utf-8")
    for words in (["john", "sleeps"],
                  ["john", "sleeps", "and", "snores", "--compare"]):
        proc = run("eval", str(path), *words)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout == ""


def test_identity_past_numpy_size_limit_is_a_parse_error(tmp_path):
    # np.eye refuses 10**10 rows with "array is too big", a ValueError.
    # Only the first command that reads the tensor builds it.
    path = tmp_path / "huge.lex"
    path.write_text("#type n 10000000000\nw : n.r n = @identity\n",
                    encoding="utf-8")
    assert run("check", str(path), "w", "--target", "n.r n").returncode == 0
    proc = run("eval", str(path), "w", "--target", "n.r n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 2: entry 'w'")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("literal", [
    "[" + "1" * 5000 + "]",   # past Python's integer digit limit
    "[" + "1" * 400 + "]",    # past the float range
    "[" * 100000,             # past the recursion limit
], ids=["digits", "overflow", "nesting"])
def test_unreadable_literal_is_a_parse_error(tmp_path, literal):
    path = tmp_path / "literal.lex"
    path.write_text(f"#type n 1\nw : n = {literal}\n", encoding="utf-8")
    proc = run("check", str(path), "w", "--target", "n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 2: ")
    assert "Traceback" not in proc.stderr


# A VP coordinator at n = s = 32: its dense tensor has 32**6 cells (8 GiB).
BIG_VP_LEX = ("#type n 32\n#type s 32\njohn : n = @random(1)\n"
              "sleeps : n.r s = @random(2)\n"
              "and : s.r n.r.r n.r s s.l n = @conj\n")


@pytest.mark.parametrize("word, line, cells, patch", [
    ("likes", 6, 32 ** 3, "_random_array"),
    ("is", 7, 32 ** 2, "eye"),
    ("and", 5, 32 ** 6, "coordinator_tensor"),
], ids=["random", "identity", "conj"])
def test_lexicon_memory_error_is_a_parse_error(monkeypatch, word, line,
                                               cells, patch):
    # An entry is realised on first use, so its MemoryError is met by
    # reading its tensor; the realiser is made to fail here instead of
    # allocating the cells.
    import numpy as np

    from frobcoord import errors, lexicon

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np if patch == "eye" else lexicon, patch,
                        out_of_memory)
    lex = lexicon.parse_lexicon(BIG_VP_LEX + "likes : n.r s n.l = @random(3)"
                                "\nis : n.r n = @identity\n")
    with pytest.raises(errors.ParseError) as exc:
        lex[word].tensor
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: entry {word!r}")
    assert f" {cells} cells" in str(exc.value)


def refuse_dense_coordinator(monkeypatch):
    from frobcoord import lexicon

    def refuse(*_):
        raise AssertionError("coordinator built")

    monkeypatch.setattr(lexicon, "coordinator_tensor", refuse)


def test_eval_compare_at_the_8gib_vp_coordinator(tmp_path, monkeypatch,
                                                 capsys):
    from frobcoord import cli

    refuse_dense_coordinator(monkeypatch)
    path = tmp_path / "big.lex"
    path.write_text(BIG_VP_LEX, encoding="utf-8")
    code = cli.main(["eval", str(path), "john", "sleeps", "and", "sleeps",
                     "--compare"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("max-abs-diff ")
    assert float(out.split()[1]) <= 1e-9


def test_spider_memory_error_is_an_error_exit(lex_path, monkeypatch, capsys):
    from frobcoord import cli, evaluator

    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(evaluator, "_copy_array", out_of_memory)
    code = cli.main(["eval", lex_path, "john", "sleeps", "and", "snores",
                     "--mode", "explicit"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: token 2: a copy spider of 8 cells")


def test_spider_past_numpy_size_limit_is_an_error_exit(tmp_path):
    # A copy spider on a wire of dimension 1.1e6 has 1.3e18 cells, which
    # numpy refuses with a ValueError; closed form builds no spider.
    path = tmp_path / "wide.lex"
    path.write_text("#type n 1100000\n#type s 1\njohn : n = @random(1)\n"
                    "sleeps : n.r s = @random(2)\n"
                    "snores : n.r s = @random(3)\n"
                    "and : s.r n.r.r n.r s s.l n = @conj\n", encoding="utf-8")
    words = [str(path), "john", "sleeps", "and", "snores"]
    for mode in (["--mode", "explicit"], ["--compare"]):
        proc = run("eval", *words, *mode)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: token 2: a copy spider of")
        assert "Traceback" not in proc.stderr
    assert run("eval", *words, "--mode", "closed-form").returncode == 0


@pytest.mark.parametrize("line", ["#type n \u0663", "#type n 2\n"
                                  "john : n = @random(\u0661\u0662)"],
                         ids=["type", "random"])
def test_non_ascii_digits_are_a_parse_error(tmp_path, line):
    path = tmp_path / "digits.lex"
    path.write_text(f"#type s 2\n{line}\n", encoding="utf-8")
    proc = run("check", str(path), "john", "--target", "n")
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: line {line.count(chr(10)) + 2}: ")
    assert "Traceback" not in proc.stderr


def test_invalid_utf8_lexicon_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.lex"
    path.write_bytes(b"#type n 2\r\njohn : n = [1, 0]\n\xff : n = [0, 1]\n")
    proc = run("check", str(path), "john", "--target", "n")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: line 3: invalid UTF-8")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("check", "john", "sleeps", "and", "snores"),
    ("check", "john", "sleeps", "and", "snores", "--all"),
    ("derive", "john", "sleeps", "and", "snores"),
    ("eval", "john", "sleeps", "and", "snores", "--mode", "closed-form"),
    ("eval", "john", "sleeps", "and", "snores", "--mode", "explicit"),
    ("eval", "john", "sleeps", "and", "snores", "--compare"),
], ids=["check", "check-all", "derive", "eval-closed-form", "eval-explicit",
        "eval-compare"])
def test_commands_that_never_build_a_coordinator(lex_path, monkeypatch,
                                                 capsys, args):
    # check and derive realise no entry; eval realises each word of its
    # sentence once, and no coordinator.
    from frobcoord import cli, lexicon

    refuse_dense_coordinator(monkeypatch)
    realised = []
    make_entry = lexicon.LexiconEntry.__init__

    def recording(self, word, type, spec, line, cells, build):
        def record():
            assert args[0] == "eval", f"{args[0]} realised {word!r}"
            realised.append(word)
            return build()
        make_entry(self, word, type, spec, line, cells, record)

    monkeypatch.setattr(lexicon.LexiconEntry, "__init__", recording)
    assert cli.main([args[0], lex_path, *args[1:]]) == 0
    assert capsys.readouterr().out
    if args[0] == "eval":
        assert sorted(realised) == ["john", "sleeps", "snores"]
    else:
        assert realised == []


def test_coordinated_adjectives_through_the_cli(tmp_path):
    # check and eval both take the coordinator positions from the lexicon,
    # so check prints the one derivation that eval contracts.
    path = tmp_path / "adjectives.lex"
    path.write_text("#type n 2\n#type s 2\nred : n n.l = [1, 2, 3, 4]\n"
                    "blue : n n.l = [5, 6, 7, 8]\n"
                    "and : n n.r n n.l n.l.l n.l = @conj\n"
                    "car : n = [1, 1]\nsleeps : n.r s = [1, 0, 0, 1]\n",
                    encoding="utf-8")
    words = [str(path), "red", "and", "blue", "car", "sleeps"]
    proc = run("check", *words, "--all")
    assert proc.returncode == 0
    assert proc.stdout == ("(0.0–1.1) (0.1–1.0) (1.2–4.0) (1.3–3.0) "
                           "(1.4–2.1) (1.5–2.0)\n")
    for mode in ("explicit", "closed-form"):
        proc = run("eval", *words, "--mode", mode)
        assert (proc.returncode, proc.stdout) == (0, "17 53\n")


def test_result_past_numpy_axis_limit_is_an_error_exit(tmp_path):
    # MAX_AXES + 1 unlinked nouns: the plan refuses the last outer product
    # before any array is made.
    path = tmp_path / "nouns.lex"
    path.write_text("#type n 1\njohn : n = [1]\n", encoding="utf-8")
    for count, code in ((MAX_AXES, 0), (MAX_AXES + 1, 2)):
        proc = run("eval", str(path), *["john"] * count,
                   "--target", " ".join(["n"] * count))
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
    assert proc.stderr == (f"error: contraction step {MAX_AXES - 1} would "
                           f"make an array of {MAX_AXES + 1} axes; numpy "
                           f"allows {MAX_AXES}\n")


def test_entry_past_numpy_axis_limit_is_a_parse_error(tmp_path):
    wires = " ".join(["n"] * (MAX_AXES + 1))
    path = tmp_path / "wide.lex"
    path.write_text(f"#type n 1\nw : {wires} = [1]\n", encoding="utf-8")
    assert run("check", str(path), "w", "--target", wires).returncode == 0
    proc = run("eval", str(path), "w", "--target", wires)
    assert proc.returncode == 2
    assert proc.stderr == (f"error: line 2: entry 'w': its {MAX_AXES + 1} "
                           f"wires are past numpy's limit of {MAX_AXES} "
                           f"axes\n")


def test_memory_error_is_an_error_exit():
    # A 2 GiB address-space limit on the child alone: the 20000**2-cell
    # copy in the frobenius suite cannot be allocated, so nothing is
    # touched.  numpy raises MemoryError, which main maps to exit 2.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {k: v for k, v in os.environ.items() if k != "FROBCOORD_SEED"}
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "frobcoord", "selftest", "--dims", "20000",
         "--trials", "1"], capture_output=True, text=True, timeout=120,
        env=env, preexec_fn=limit)
    assert proc.returncode == 2
    assert proc.stderr == "error: out of memory\n"

from itertools import combinations

import numpy as np
import pytest

from frobcoord import errors
from frobcoord import lexicon as lexicon_module
from frobcoord.coordination import coordinator_tensor
from frobcoord.evaluator import evaluate_sentence
from frobcoord.lexicon import (SplitMix64, dumps_lexicon,
                               generate_random_lexicon, load_lexicon,
                               parse_lexicon, save_lexicon)
from frobcoord.pregroup import coordinator_type, parse_type
from frobcoord.semiring import BOOLEAN, REAL
from frobcoord.tensor import MAX_AXES

from oracles import coordinator_caps_and_merge

GOOD = """
#semiring real
#type n 4
#type s 3
john : n = [0.1, 0.2, 0.0, 1.0]
and : s.r s s.l = @conj
walks : n.r s = @random(42)
is : n.r n = @identity
"""


def test_splitmix_reference_values():
    # Standard test vector for seed 0 (0xe220a8397b1dcdaf, ...).
    stream = SplitMix64(0)
    assert [stream.next_int() for _ in range(3)] == [
        16294208416658607535, 7960286522194355700, 487617019471545679]
    unit = SplitMix64(0).next_unit()
    assert unit == (16294208416658607535 >> 11) * 2.0 ** -53
    assert 0.0 <= unit < 1.0


def test_parse_basic_entries():
    lex = parse_lexicon(GOOD)
    assert lex.semiring is REAL
    assert lex.spaces.dim("n") == 4
    assert lex["john"].type == parse_type("n")
    assert lex["john"].tensor.array.tolist() == [0.1, 0.2, 0.0, 1.0]
    assert not lex["john"].is_coordinator
    assert lex["and"].is_coordinator
    assert np.array_equal(lex["is"].tensor.array, np.eye(4))
    assert "walks" in lex and "flies" not in lex


def test_conj_entry_matches_brute_force_network():
    lex = parse_lexicon(GOOD)
    want = coordinator_caps_and_merge([3])
    assert np.allclose(lex["and"].tensor.array, want)
    assert lex["and"].tensor.dims == (3, 3, 3)


def test_loaded_tensors_type_check():
    lex = parse_lexicon(GOOD)
    for entry in lex:
        assert entry.tensor.wires == lex.spaces.wires(entry.type)


def test_dim_mismatch_names_word():
    bad = "#type n 3\njohn : n = [1, 2]\n"
    with pytest.raises(errors.DimMismatch) as exc:
        parse_lexicon(bad)
    assert "john" in str(exc.value)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(errors.ParseError) as exc:
        parse_lexicon("#type n 2\n\nbroken line\n")
    assert exc.value.line == 3
    with pytest.raises(errors.ParseError):
        parse_lexicon("#semiring quaternion\n")
    with pytest.raises(errors.ParseError):
        parse_lexicon("#type n 2\n#type n 3\n")
    with pytest.raises(errors.ParseError):
        parse_lexicon("#type n 2\na : n = [1, 2]\na : n = [2, 1]\n")
    with pytest.raises(errors.ParseError):
        parse_lexicon("#type n 2\na : n = @bogus\n")
    with pytest.raises(errors.ParseError):
        parse_lexicon("#type s 2\nand : s.r s s.r = @conj\n")
    # A second #semiring would re-type every entry; a zero dimension
    # would fail later without a line.
    with pytest.raises(errors.ParseError) as exc:
        parse_lexicon("#semiring real\n#type n 2\n#semiring bool\n")
    assert exc.value.line == 3
    with pytest.raises(errors.ParseError) as exc:
        parse_lexicon("#type n 0\n#type s 1\n")
    assert exc.value.line == 1
    # A dimension past int()'s 4 300-digit limit is no ValueError.
    with pytest.raises(errors.ParseError) as exc:
        parse_lexicon("#type s 2\n#type n " + "9" * 5000 + "\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("literal", ["[NaN, 1]", "[1, Infinity]",
                                     "[-Infinity, 1]", "[1e400, 1]",
                                     "[true, 1]"])
def test_non_finite_real_literal_rejected(literal):
    with pytest.raises(errors.ParseError) as exc:
        parse_lexicon(f"#type n 2\n\nbad : n = {literal}\n")
    assert exc.value.line == 3
    assert "finite" in str(exc.value)


@pytest.mark.parametrize("literal", ["[0.3, 1]", "[2, 0]", "[1, -1]",
                                     "[NaN, 0]", "[true, 0]", "[1.0, 0]"])
def test_boolean_literal_must_be_zero_or_one(literal):
    with pytest.raises(errors.ParseError) as exc:
        parse_lexicon(f"#semiring bool\n#type n 2\nbad : n = {literal}\n")
    assert exc.value.line == 3
    assert "0 or 1" in str(exc.value)


def test_undeclared_symbol():
    with pytest.raises(errors.UndeclaredSymbol) as exc:
        parse_lexicon("#type n 2\njohn : n q.l = [1]\n")
    assert exc.value.word == "john"
    assert exc.value.base == "q"


def test_identity_requires_square_order_two():
    with pytest.raises(errors.DimMismatch):
        parse_lexicon("#type n 2\n#type s 3\nis : n.r s = @identity\n")
    with pytest.raises(errors.DimMismatch):
        parse_lexicon("#type n 2\nis : n = @identity\n")


def test_round_trip_through_file(tmp_path):
    rng = np.random.default_rng(0)
    source = parse_lexicon(GOOD)
    # Add a literal entry with awkward floating-point values.
    text = dumps_lexicon(source) + \
        f"pi_ish : n = [{np.pi!r}, {1/3!r}, {2**-40!r}, {1e300!r}]\n"
    first = parse_lexicon(text)
    path = tmp_path / "lex.txt"
    save_lexicon(first, path)
    second = load_lexicon(path)
    assert second.semiring is first.semiring
    assert second.spaces == first.spaces
    assert second.words() == first.words()
    for word in first.words():
        a, b = first[word], second[word]
        assert a.type == b.type
        assert a.spec == b.spec
        assert np.array_equal(a.tensor.array, b.tensor.array)


def test_boolean_lexicon_round_trip(tmp_path):
    text = ("#semiring bool\n#type n 3\n"
            "cats : n = [1, 0, 1]\n"
            "pets : n = @random(5)\n")
    lex = parse_lexicon(text)
    assert lex.semiring is BOOLEAN
    assert lex["cats"].tensor.array.tolist() == [True, False, True]
    assert set(np.unique(lex["pets"].tensor.array)) <= {True, False}
    path = tmp_path / "bool.txt"
    save_lexicon(lex, path)
    again = load_lexicon(path)
    assert np.array_equal(again["cats"].tensor.array,
                          lex["cats"].tensor.array)
    assert np.array_equal(again["pets"].tensor.array,
                          lex["pets"].tensor.array)


def test_random_entries_are_deterministic():
    a = parse_lexicon("#type n 2\n#type s 2\nw : n.r s = @random(42)\n")
    b = parse_lexicon("#type n 2\n#type s 2\nw : n.r s = @random(42)\n")
    c = parse_lexicon("#type n 2\n#type s 2\nw : n.r s = @random(43)\n")
    assert np.array_equal(a["w"].tensor.array, b["w"].tensor.array)
    assert not np.array_equal(a["w"].tensor.array, c["w"].tensor.array)
    # The documented generator: splitmix64 stream mapped to [0, 1).
    stream = SplitMix64(42)
    want = [stream.next_unit() for _ in range(4)]
    assert a["w"].tensor.flat.tolist() == want


def test_boolean_random_thresholded():
    lex = parse_lexicon("#semiring bool\n#type n 8\nw : n = @random(1)\n")
    stream = SplitMix64(1)
    want = [stream.next_unit() >= 0.5 for _ in range(8)]
    assert lex["w"].tensor.array.tolist() == want


def test_generate_random_lexicon_determinism():
    grammar = {"john": "n", "sleeps": "n.r s"}
    sp = {"n": 3, "s": 2}
    a = generate_random_lexicon(grammar, sp, seed=9)
    b = generate_random_lexicon(grammar, sp, seed=9)
    c = generate_random_lexicon(grammar, sp, seed=10)
    for word in grammar:
        assert np.array_equal(a[word].tensor.array, b[word].tensor.array)
    assert not np.array_equal(a["john"].tensor.array,
                              c["john"].tensor.array)
    assert a["sleeps"].tensor.wires == a.spaces.wires(parse_type("n.r s"))


@pytest.mark.parametrize("seed,same", [(-1, 2 ** 64 - 1), (2 ** 64, 0),
                                       (-2 ** 64 - 5, 2 ** 64 - 5)])
def test_generate_random_lexicon_takes_seeds_modulo_2_64(seed, same):
    grammar = {"a": "n", "b": "n.r s"}
    sp = {"n": 3, "s": 2}
    got = generate_random_lexicon(grammar, sp, seed=seed)
    want = generate_random_lexicon(grammar, sp, seed=same)
    for word in grammar:
        assert got[word].tensor.array.tobytes() == \
            want[word].tensor.array.tobytes()


def test_generate_random_lexicon_boolean():
    lex = generate_random_lexicon([("cats", "n")], {"n": 6}, seed=3,
                                  semiring=BOOLEAN)
    assert lex["cats"].tensor.array.dtype == np.bool_


def test_load_missing_file():
    with pytest.raises(OSError):
        load_lexicon("/nonexistent/path/lex.txt")


def reference_cells(seed, count, semiring, skip=0):
    stream = SplitMix64(seed)
    for _ in range(skip):
        stream.next_int()
    return [semiring.from_unit(stream.next_unit()) for _ in range(count)]


@pytest.mark.parametrize("semiring", [REAL, BOOLEAN], ids=["real", "bool"])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_random_entries_match_reference_stream(semiring, seed):
    for size in (1, 2, 3, 64, 4097):
        lex = parse_lexicon(f"#semiring {semiring.name}\n#type n {size}\n"
                            f"w : n = @random({seed})\n")
        got = lex["w"].tensor.array
        assert got.dtype == semiring.dtype
        assert got.tolist() == reference_cells(seed, size, semiring)


@pytest.mark.parametrize("semiring", [REAL, BOOLEAN], ids=["real", "bool"])
def test_random_entries_of_mixed_sizes_share_one_realisation(semiring):
    # Entries smaller than a block of counters sit beside entries of a
    # block and of more than a block; every stream must stay its own.
    block = lexicon_module._BLOCK
    sizes = {"a": 1, "b": 2, "c": block, "d": 3, "e": block + 1, "f": 2}
    seeds = {w: 2 ** 64 - 1 - 977 * i for i, w in enumerate(sizes)}
    text = f"#semiring {semiring.name}\n" + "".join(
        f"#type t{size} {size}\n" for size in set(sizes.values())) + "".join(
        f"{w} : t{size} = @random({seeds[w]})\n" for w, size in sizes.items())
    lex = parse_lexicon(text)
    arrays = [lex[w].tensor.array for w in sizes]
    for w, arr in zip(sizes, arrays):
        assert arr.dtype == semiring.dtype and not arr.flags.writeable
        assert arr.tolist() == reference_cells(seeds[w], sizes[w], semiring)
    for a, b in combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("dims, type_text", [
    ("#type n 1000000\n#type s 1000\n", "n.r s n.l"),  # 10**15 cells
    ("#type n 100000\n#type s 2\n", "n n n n")])      # past numpy's limit
def test_random_entry_too_big_for_memory_is_a_parse_error(dims, type_text):
    lex = parse_lexicon(f"{dims}a : n = @random(1)\n"
                        f"w : {type_text} = @random(2)\n")
    with pytest.raises(errors.ParseError) as exc:
        lex["w"].tensor
    assert exc.value.line == 4
    assert str(exc.value).startswith("line 4: entry 'w'")


def test_conj_entry_past_numpy_axis_limit_is_a_parse_error():
    x = " ".join(["n"] * 22)
    lex = parse_lexicon(f"#type n 1\n\n"
                        f"and : {coordinator_type(parse_type(x))} = @conj\n")
    with pytest.raises(errors.ParseError) as exc:
        lex["and"].tensor
    assert str(exc.value) == (f"line 3: entry 'and': its 66 wires are past "
                              f"numpy's limit of {MAX_AXES} axes")


def test_generated_entry_too_big_for_memory_is_an_error_without_a_line():
    lex = generate_random_lexicon({"w": "n n n n"}, {"n": 100000}, seed=1)
    with pytest.raises(errors.ParseError) as exc:
        lex["w"].tensor
    assert exc.value.line is None
    assert str(exc.value) == f"entry 'w': its {10 ** 20} cells do not fit " \
                             f"in memory"


@pytest.mark.parametrize("semiring", [REAL, BOOLEAN], ids=["real", "bool"])
def test_generate_random_lexicon_continues_one_stream(semiring):
    grammar = {"a": "n", "b": "n.r s", "c": "s", "d": "n.r s n.l"}
    lex = generate_random_lexicon(grammar, {"n": 5, "s": 3}, seed=2 ** 64 - 5,
                                  semiring=semiring)
    offset = 0
    for word in grammar:
        flat = lex[word].tensor.flat.tolist()
        assert flat == reference_cells(2 ** 64 - 5, len(flat), semiring,
                                       skip=offset)
        offset += len(flat)
    assert offset == 5 + 15 + 3 + 75


@pytest.mark.parametrize("semiring", [REAL, BOOLEAN], ids=["real", "bool"])
def test_generated_lexicon_loads_back_to_the_same_bytes(semiring, tmp_path):
    grammar = {"john": "n", "sleeps": "n.r s", "a:b": "n.r.r n.l",
               "é": "s"}
    lex = generate_random_lexicon(grammar, {"n": 3, "s": 2}, seed=-7,
                                  semiring=semiring)
    path = tmp_path / "gen.txt"
    save_lexicon(lex, path)
    again = load_lexicon(path)
    assert dumps_lexicon(again) == path.read_text(encoding="utf-8")
    for word in grammar:
        assert again[word].spec == lex[word].spec
        assert again[word].tensor.array.tobytes() == \
            lex[word].tensor.array.tobytes()


@pytest.mark.parametrize("grammar, error", [
    ({"a": ""}, errors.ParseError),           # the empty type
    ({"a b": "n"}, errors.ParseError),        # whitespace in the word
    ({"a\nb": "n"}, errors.ParseError),      # a line break in the word
    ({"a\u2028b": "n"}, errors.ParseError),  # so is U+2028 to splitlines
    ({"": "n"}, errors.ParseError),
    ({"#a": "n"}, errors.ParseError),         # read back as a directive
    ([("a", "n"), ("a", "n")], errors.ParseError),
    ({"a": "q"}, errors.UndeclaredSymbol),
    ({"a": "n.x"}, errors.TypeSyntaxError),
])
def test_generated_entries_are_checked_as_parsed_lines(grammar, error):
    with pytest.raises(error) as exc:
        generate_random_lexicon(grammar, {"n": 2}, seed=1)
    assert isinstance(exc.value, errors.FrobcoordError)
    assert getattr(exc.value, "line", None) is None


def test_dumps_keeps_random_spec_verbatim():
    text = ("#semiring real\n#type n 2\n"
            "a : n = @random(007)\n"
            "b : n = @random(18446744073709551615)\n")
    lex = parse_lexicon(text)
    assert dumps_lexicon(lex) == text
    assert lex["a"].tensor.flat.tolist() == reference_cells(7, 2, REAL)


@pytest.mark.parametrize("seed", ["18446744073709551616",
                                  "340282366920938463463374607431768211457",
                                  "9" * 5000])
def test_random_seed_must_be_below_two_to_the_64(seed):
    with pytest.raises(errors.ParseError) as exc:
        parse_lexicon(f"#type n 2\n\nw : n = @random({seed})\n")
    assert exc.value.line == 3
    assert "2**64" in str(exc.value)
    # Leading zeros do not count against the bound.
    lex = parse_lexicon("#type n 2\nw : n = @random(" + "0" * 30 + "1)\n")
    assert lex["w"].tensor.flat.tolist() == reference_cells(1, 2, REAL)



def test_coordinators_built_only_on_access_and_kept(monkeypatch):
    from frobcoord import lexicon

    built = []

    def counting(x, spaces, semiring):
        built.append(str(x))
        return coordinator_tensor(x, spaces, semiring)

    monkeypatch.setattr(lexicon, "coordinator_tensor", counting)
    lex = parse_lexicon("#type n 2\n#type s 3\n"
                        "john : n = @random(1)\nmary : n = @random(2)\n"
                        "sleeps : n.r s = @random(3)\n"
                        "and : s.r n.r.r n.r s s.l n = @conj\n"
                        "and_n : n.r n n.l = @conj\n")
    sentences = ["john sleeps and sleeps and sleeps",
                 "mary and_n john sleeps and sleeps",
                 "mary and_n john and_n mary sleeps"]
    for mode in ("closed-form", "explicit"):
        for words in sentences:
            evaluate_sentence(words.split(), lex, "s", mode=mode)
    # Both modes work from copy spiders; only the dense view builds.
    assert built == []
    conj = lex["and"].tensor
    assert built == ["n.r s"]
    assert lex["and"].tensor is conj
    assert built == ["n.r s"]
    assert conj.isclose(coordinator_tensor(parse_type("n.r s"), lex.spaces))


@pytest.mark.parametrize("text,line", [
    ("#type n \u0663\n", 1),                          # Arabic-Indic 3
    ("#type n \u00b2\n", 1),                          # superscript 2
    ("#type n 2\nw : n = @random(\u0661\u0662)\n", 2),  # Arabic-Indic 12
    ("#type n 2\nw : n = @random(\uff11)\n", 2),       # fullwidth 1
], ids=["type-arabic-indic", "type-superscript", "random-arabic-indic",
        "random-fullwidth"])
def test_non_ascii_digits_rejected(text, line):
    with pytest.raises(errors.ParseError) as exc:
        parse_lexicon(text)
    assert exc.value.line == line

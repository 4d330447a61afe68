from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoord import errors
from frobcoord.pregroup import (Derivation, PregroupType, SimpleType,
                                coordinator_type, enumerate_reductions,
                                parse_type, reduce)

from oracles import _derivation_search, rewrite_link_sets


def sigs(ptype):
    return tuple((s.base, s.z) for s in ptype)


def test_parse_fixtures():
    assert sigs(parse_type("n.r s n.l")) == (("n", 1), ("s", 0), ("n", -1))
    assert sigs(parse_type("s")) == (("s", 0),)
    assert parse_type("n.l.r") == parse_type("n")
    assert sigs(parse_type("n.r.r")) == (("n", 2),)
    assert len(parse_type("")) == 0


def test_parse_errors():
    with pytest.raises(errors.TypeSyntaxError) as exc:
        parse_type("n s.")
    assert exc.value.position == 2
    with pytest.raises(errors.TypeSyntaxError):
        parse_type("n .r")
    with pytest.raises(errors.UnknownBaseSymbol) as exc:
        parse_type("n q.r", bases={"n", "s"})
    assert exc.value.base == "q"


@given(st.text(alphabet="ab", min_size=1, max_size=3),
       st.integers(-4, 4))
@settings(max_examples=50, deadline=None)
def test_adjoints_cancel(base, z):
    t = SimpleType(base, z)
    assert t.l.r == t == t.r.l


@given(st.lists(st.tuples(st.sampled_from("ns"), st.integers(-2, 2)),
                min_size=0, max_size=5))
@settings(max_examples=50, deadline=None)
def test_type_adjoints_reverse_and_cancel(pairs):
    t = PregroupType(tuple(SimpleType(b, z) for b, z in pairs))
    assert t.adjoint_left().adjoint_right() == t
    assert t.adjoint_right().adjoint_left() == t
    if len(t) >= 2:
        a, b = t[:1], t[1:]
        assert (a @ b).adjoint_right() == b.adjoint_right() @ a.adjoint_right()


def test_type_string_round_trip():
    for text in ("n", "n.r s n.l", "s.r n.r.r n.r s s.l n", "n.l.l"):
        assert str(parse_type(text)) == text


def test_reduce_fixtures():
    mary = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
    d = reduce(mary, parse_type("s"))
    assert sorted(d.links) == [(0, 1), (3, 4)]
    assert d.residual == (2,)

    assert reduce([parse_type("s")], parse_type("s")).links == frozenset()

    john = [parse_type("n"), parse_type("n.r s")]
    assert sorted(reduce(john, parse_type("s")).links) == [(0, 1)]

    backwards = [parse_type("n.r s n.l"), parse_type("n")]
    assert reduce(backwards, parse_type("s")) is None


def test_reduce_requires_tokens():
    with pytest.raises(errors.EmptyType):
        reduce([], parse_type("s"))


def test_coordinator_type_fixtures():
    assert str(coordinator_type(parse_type("s"))) == "s.r s s.l"
    assert str(coordinator_type(parse_type("n"))) == "n.r n n.l"
    assert str(coordinator_type(parse_type("n.r s"))) == \
        "s.r n.r.r n.r s s.l n"
    with pytest.raises(errors.EmptyType):
        coordinator_type(PregroupType())


@given(st.lists(st.tuples(st.sampled_from("ns"), st.integers(-1, 1)),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_ternary_reduction_always_grammatical(pairs):
    x = PregroupType(tuple(SimpleType(b, z) for b, z in pairs))
    d = reduce([x, coordinator_type(x), x], x)
    assert d is not None
    assert d.residual_type() == x


def test_derivation_validation():
    types = (parse_type("n"), parse_type("n.r s n.l"), parse_type("n"))
    with pytest.raises(errors.InvalidDerivation):
        Derivation(types, {(0, 2)}, (1, 3, 4))  # n against s
    with pytest.raises(errors.InvalidDerivation):
        Derivation(types, {(0, 1)}, (2, 3))  # residual omits an index
    with pytest.raises(errors.InvalidDerivation):
        Derivation(types, {(1, 0)}, (2, 3, 4))  # backwards link
    with pytest.raises(errors.InvalidDerivation):
        Derivation(types, {(3, 5)}, (0, 1, 2, 4))  # past the row's end
    with pytest.raises(errors.InvalidDerivation):
        Derivation(types, {(0, 1), (1, 4)}, (2, 3))  # index 1 reused
    good = Derivation(types, {(0, 1), (3, 4)}, (2,))
    assert good.residual_type() == parse_type("s")
    assert good.token_wire(3) == (1, 2)


def test_crossing_links_rejected():
    types = (parse_type("n n"), parse_type("n.r n.r"))
    with pytest.raises(errors.InvalidDerivation):
        Derivation(types, {(0, 2), (1, 3)}, ())


def test_residual_under_link_rejected():
    types = (parse_type("n.l n n"),)
    with pytest.raises(errors.InvalidDerivation):
        Derivation(types, {(0, 2)}, (1,))


def _random_row(rng, max_len):
    n = int(rng.integers(1, max_len + 1))
    return PregroupType(tuple(
        SimpleType(rng.choice(["n", "s"]), int(rng.integers(-2, 3)))
        for _ in range(n)))


@pytest.mark.parametrize("target_text", ["s", "n", "", "n.r s"])
def test_enumeration_matches_rewriting_oracle(target_text):
    rng = np.random.default_rng(42)
    target = parse_type(target_text)
    for _ in range(120):
        row = _random_row(rng, 8)
        got = enumerate_reductions([row], target, cap=10_000)
        want = rewrite_link_sets(sigs(row), sigs(target))
        assert {d.links for d in got} == set(want)
        sorted_lists = [tuple(sorted(d.links)) for d in got]
        assert sorted_lists == sorted(sorted_lists)
        if got:
            assert reduce([row], target).links == got[0].links
        else:
            assert reduce([row], target) is None


def test_enumeration_fixture_examples():
    mary = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
    assert len(enumerate_reductions(mary, parse_type("s"), cap=100)) == 1

    chain = [parse_type("n"), parse_type("n.r n"), parse_type("n.r n")]
    got = enumerate_reductions(chain, parse_type("n"), cap=100)
    want = rewrite_link_sets(
        sigs(parse_type("n n.r n n.r n")), sigs(parse_type("n")))
    assert {d.links for d in got} == set(want)
    assert len(got) == 1


def test_ambiguous_row_enumerates_in_order():
    row = [parse_type("n n.r n n.r")]
    got = enumerate_reductions(row, parse_type("n n.r"), cap=100)
    assert [sorted(d.links) for d in got] == [[(0, 1)], [(2, 3)]]
    assert reduce(row, parse_type("n n.r")).links == frozenset({(0, 1)})


def test_enumeration_matches_oracle_up_to_length_twelve():
    rng = np.random.default_rng(99)
    for _ in range(40):
        row = _random_row(rng, 12)
        for target_text in ("s", ""):
            target = parse_type(target_text)
            got = enumerate_reductions([row], target, cap=100_000)
            want = rewrite_link_sets(sigs(row), sigs(target))
            assert {d.links for d in got} == set(want)


def test_enumeration_respects_cap_and_determinism():
    row = parse_type("n n.r n n.r n n.r n")
    target = parse_type("n")
    all_of_them = enumerate_reductions([row], target, cap=1000)
    assert len(all_of_them) >= 1
    assert enumerate_reductions([row], target, cap=1) == all_of_them[:1]
    assert enumerate_reductions([row], target, cap=1000) == all_of_them
    with pytest.raises(ValueError):
        enumerate_reductions([row], target, cap=0)


def test_every_search_result_validates():
    rng = np.random.default_rng(7)
    for _ in range(60):
        tokens = [_random_row(rng, 3) for _ in range(int(rng.integers(1, 4)))]
        for d in enumerate_reductions(tokens, parse_type("s"), cap=50):
            d.validate()  # raises on any invariant breach
            assert d.residual_type() == parse_type("s")


def test_ungrammatical_gives_empty_enumeration():
    row = [parse_type("n.r s n.l"), parse_type("n")]
    assert enumerate_reductions(row, parse_type("s"), cap=10) == []


SIGS = st.tuples(st.sampled_from("ns"), st.integers(-2, 2))
# A row that contracts to the unit: empty, or a link around such a row
# followed by another.
UNIT_ROWS = st.recursive(
    st.just([]),
    lambda inner: st.tuples(SIGS, inner, inner).map(
        lambda t: [t[0], *t[1], (t[0][0], t[0][1] + 1), *t[2]]),
    max_leaves=6)


@st.composite
def structured_rows(draw):
    """A reducible row for a target of length 0-2, then up to two point
    edits, which may make it ungrammatical or ambiguous."""
    target = draw(st.lists(SIGS, max_size=2))
    row = draw(UNIT_ROWS)
    for s in target:
        row = row + [s] + draw(UNIT_ROWS)
    for pos, s in draw(st.lists(st.tuples(st.integers(0, 99), SIGS),
                                max_size=2)):
        if row:
            row[pos % len(row)] = s
    return row, target


def _ptype(pairs):
    return PregroupType(tuple(SimpleType(b, z) for b, z in pairs))


def _check_against_oracle(row, target, cap=50):
    """reduce and enumerate_reductions against the backtracking search."""
    want = list(islice(_derivation_search(row.simples, target), cap))
    d = reduce([row], target)
    assert (d and tuple(sorted(d.links))) == (want[0] if want else None)
    got = enumerate_reductions([row], target, cap=cap)
    assert [tuple(sorted(e.links)) for e in got] == want
    if len(want) < cap and len(row) <= 14:
        assert {e.links for e in got} == set(
            rewrite_link_sets(sigs(row), sigs(target)))
    return bool(want)


@given(structured_rows())
@settings(max_examples=300, deadline=None)
def test_reduce_matches_backtracking_oracle(case):
    row, target = case
    _check_against_oracle(_ptype(row), _ptype(target))


def test_reduce_matches_backtracking_oracle_on_seeded_rows():
    rng = np.random.default_rng(2024)
    grammatical = 0
    for trial in range(600):
        target = _random_row(rng, 2)[:int(rng.integers(0, 3))]
        if trial % 2:
            row = _random_row(rng, 12)
        else:
            # Survivors spelling the target, each after a run of adjacent
            # reducible pairs, then point edits.
            pairs = []
            for s in (*target, None):
                for _ in range(int(rng.integers(0, 4))):
                    b, z = rng.choice(["n", "s"]), int(rng.integers(-2, 2))
                    pairs += [(b, z), (b, z + 1)]
                if s is not None:
                    pairs.append((s.base, s.z))
            for _ in range(int(rng.integers(0, 3))):
                if pairs:
                    pairs[int(rng.integers(len(pairs)))] = (
                        rng.choice(["n", "s"]), int(rng.integers(-2, 3)))
            row = _ptype(pairs)
        grammatical += _check_against_oracle(row, target)
    assert 100 < grammatical < 500


def test_long_row_reduces_without_recursion_error():
    # 2500 words, 4999 simple types: the recursive search ran out of stack
    # near 600 words.
    n, step = parse_type("n"), parse_type("n.r n")
    d = reduce([n] + [step] * 2499, n)
    assert d.residual == (4998,)
    assert sorted(d.links) == [(i, i + 1) for i in range(0, 4998, 2)]
    assert reduce([n] + [step] * 2499, parse_type("s")) is None

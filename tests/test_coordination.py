import zlib

import numpy as np
import pytest

from frobcoord import errors, evaluator
from frobcoord.coordination import (coordinate_closed_form,
                                    coordinator_tensor,
                                    ditransitive_coordination,
                                    stripping_sentence)
from frobcoord.evaluator import (SpaceAssignment, build_network, evaluate,
                                 evaluate_sentence)
from frobcoord.lexicon import parse_lexicon
from frobcoord.pregroup import (PregroupType, SimpleType, coordinator_type,
                                enumerate_reductions, parse_type, reduce)
from frobcoord.semiring import BOOLEAN, REAL
from frobcoord.tensor import (MAX_AXES, Tensor, Wire, frobenius_mu,
                              frobenius_zeta, permute_wires, random_tensor,
                              tensor_product)

from oracles import coordinator_caps_and_merge, vp_coordinator_expanded


def spaces(dn, ds=None):
    return SpaceAssignment({"n": dn, "s": ds if ds is not None else dn})


def test_atomic_coordinator_dim_one():
    got = coordinator_tensor(parse_type("n"), spaces(1))
    assert got.dims == (1, 1, 1)
    assert got.array.reshape(-1).tolist() == [1.0]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_atomic_coordinator_is_copy_spider(d):
    got = coordinator_tensor(parse_type("n"), spaces(d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                assert got.array[i, j, k] == (1.0 if i == j == k else 0.0)
    assert np.allclose(got.array, coordinator_caps_and_merge([d]))


def test_coordinator_wire_layout():
    got = coordinator_tensor(parse_type("n.r s"), spaces(2, 3))
    assert got.wires == (Wire("s", 1, 3), Wire("n", 2, 2), Wire("n", 1, 2),
                         Wire("s", 0, 3), Wire("s", -1, 3), Wire("n", 0, 2))


@pytest.mark.parametrize("dn,ds", [(1, 1), (2, 3), (3, 2), (4, 4)])
def test_vp_coordinator_equals_expanded_composition(dn, ds):
    got = coordinator_tensor(parse_type("n.r s"), spaces(dn, ds))
    assert np.allclose(got.array, vp_coordinator_expanded(dn, ds))


@pytest.mark.parametrize("type_text,dn,ds", [
    ("n", 3, 2),
    ("n.r s", 2, 3),
    ("n.r s n.l", 2, 3),
    ("n.r s n.l n.l", 2, 2),
])
def test_coordinator_equals_caps_and_merge_oracle(type_text, dn, ds):
    x = parse_type(type_text)
    sp = spaces(dn, ds)
    want = coordinator_caps_and_merge([sp.dim(s.base) for s in x])
    for sr in (REAL, BOOLEAN):
        got = coordinator_tensor(x, sp, sr)
        assert got.array.dtype == sr.dtype
        assert sr.allclose(got.array, want)


def test_coordinator_errors():
    from frobcoord.pregroup import PregroupType
    with pytest.raises(errors.EmptyType):
        coordinator_tensor(PregroupType(), spaces(2))
    with pytest.raises(errors.MissingSpace):
        coordinator_tensor(parse_type("q"), spaces(2))


def test_coordinator_past_numpy_axis_limit_is_out_of_memory(monkeypatch):
    # The planner refuses the outer product of 22 spiders (66 open wires)
    # before compile_network makes any copy spider.
    def no_spider(*args):
        raise AssertionError("a copy spider was made")

    monkeypatch.setattr(evaluator, "_copy_array", no_spider)
    x = parse_type("n " * 22)
    with pytest.raises(errors.OutOfMemory) as exc:
        coordinator_tensor(x, SpaceAssignment({"n": 1}))
    assert str(exc.value) == (f"contraction step 20 would make an array of "
                              f"66 axes; numpy allows {MAX_AXES}")


def test_spider_symmetry_within_factor_groups():
    x = parse_type("n.r s")
    got = coordinator_tensor(x, spaces(2, 3))
    k = len(x)
    # Swapping the three legs of one factor leaves the tensor unchanged.
    for f in range(k):
        legs = (k - 1 - f, k + f, 2 * k + (k - 1 - f))
        for order in ((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0)):
            perm = list(range(3 * k))
            for slot, which in zip(legs, order):
                perm[slot] = legs[which]
            swapped = permute_wires(got, perm)
            assert np.allclose(swapped.array, got.array)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
@pytest.mark.parametrize("type_text", ["n", "s", "n.r s", "n.r s n.l n.l"])
def test_coordinator_factors_into_spider_nodes(type_text, sr):
    # Explicit mode contracts a coordinator as k three-legged copy spiders;
    # their product must be the dense coordinator tensor.
    x = parse_type(type_text)
    sp, k = spaces(2, 3), len(x)
    conj_type = coordinator_type(x)
    derivation = reduce([conj_type], conj_type)
    net = build_network(derivation, [None], sp, sr)
    assert len(net.nodes) == k
    operands = []
    for p, spider in enumerate(net.nodes):
        d = sp.dim(x[p].base)
        assert spider.dims == (d, d, d)
        assert np.count_nonzero(spider.array) == d
        for j in range(d):
            assert spider.array[j, j, j] == sr.one
        legs = [k - 1 - p, k + p, 3 * k - 1 - p]
        for leg, q in enumerate(legs):
            assert net.open_wires[q] == (p, leg)
        operands += [spider.array.astype(float), legs]
    product = np.einsum(*operands, list(range(3 * k)))
    want = coordinator_tensor(x, sp, sr)
    assert sr.allclose(product if sr is REAL else product > 0, want.array)
    assert evaluate(net).isclose(want)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
@pytest.mark.parametrize("type_text", ["n", "s", "n.r s", "s.l n"])
def test_central_equivalence(type_text, sr):
    rng = np.random.default_rng(zlib.crc32(f"{type_text}/{sr.name}".encode()))
    x = parse_type(type_text)
    for _ in range(25):
        dn, ds = rng.integers(1, 5, size=2)
        sp = spaces(int(dn), int(ds))
        conj = coordinator_tensor(x, sp, sr)
        x1 = random_tensor(sp.wires(x), rng, sr)
        x2 = random_tensor(sp.wires(x), rng, sr)
        derivation = reduce([x, coordinator_type(x), x], x)
        got = evaluate(build_network(derivation, [x1, conj, x2], sp))
        assert sr.allclose(got.array,
                           coordinate_closed_form(x1, x2).array)


def test_closed_form_fixtures():
    apples = Tensor([Wire("n", 0, 3)], [1.0, 2.0, 0.5])
    oranges = Tensor([Wire("n", 0, 3)], [0.5, 1.0, 4.0])
    assert coordinate_closed_form(apples, oranges).array.tolist() == \
        [0.5, 2.0, 2.0]
    ones = frobenius_zeta("n", 3)
    assert coordinate_closed_form(ones, oranges).isclose(oranges)
    with pytest.raises(errors.ShapeMismatch):
        coordinate_closed_form(apples, frobenius_zeta("n", 2))


def test_closed_form_then_subject_contraction():
    rng = np.random.default_rng(1)
    sp = spaces(3, 2)
    vp = parse_type("n.r s")
    john = random_tensor(sp.wires(parse_type("n")), rng)
    sleep = random_tensor(sp.wires(vp), rng)
    snore = random_tensor(sp.wires(vp), rng)
    merged = coordinate_closed_form(sleep, snore)
    types = [parse_type("n"), vp]
    derivation = reduce(types, parse_type("s"))
    got = evaluate(build_network(derivation, [john, merged], sp))
    assert np.allclose(got.array, john.array @ (sleep.array * snore.array))


def test_subject_copying_rows():
    rng = np.random.default_rng(2)
    for dn, ds in ((1, 1), (2, 3), (4, 4)):
        sp = spaces(dn, ds)
        vp = parse_type("n.r s")
        sleep = random_tensor(sp.wires(vp), rng)
        snore = random_tensor(sp.wires(vp), rng)
        conj = coordinator_tensor(vp, sp)
        types = [parse_type("n"), vp, coordinator_type(vp), vp]
        derivation = reduce(types, parse_type("s"))
        for i in range(dn):
            e = np.zeros(dn)
            e[i] = 1.0
            subject = Tensor(sp.wires(parse_type("n")), e)
            got = evaluate(build_network(derivation,
                                         [subject, sleep, conj, snore], sp))
            assert np.allclose(got.array, sleep.array[i] * snore.array[i])


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_ditransitive_modes_agree(sr):
    rng = np.random.default_rng(3)
    sp = spaces(2, 2)
    noun, dt = parse_type("n"), parse_type("n.r s n.l n.l")
    for _ in range(10):
        bank, mary, john, loan = (random_tensor(sp.wires(noun), rng, sr)
                                  for _ in range(4))
        grant = random_tensor(sp.wires(dt), rng, sr)
        deny = random_tensor(sp.wires(dt), rng, sr)
        closed = ditransitive_coordination(bank, grant, deny, loan,
                                           mary, john, mode="closed-form")
        explicit = ditransitive_coordination(bank, grant, deny, loan,
                                             mary, john, mode="explicit")
        assert closed.isclose(explicit)
        # Straight-line arithmetic for the same sentence.
        g3 = sr.sum(sr.mul(grant.array, mary.array[None, None, None, :]),
                    axis=3)
        d3 = sr.sum(sr.mul(deny.array, john.array[None, None, None, :]),
                    axis=3)
        want = sr.sum(sr.mul(sr.mul(bank.array[:, None, None],
                                    sr.mul(g3, d3)),
                             loan.array[None, None, :]), axis=(0, 2))
        assert sr.allclose(closed.array, want)


def test_ditransitive_bare_verbs():
    rng = np.random.default_rng(4)
    sp = spaces(3, 2)
    noun, dt = parse_type("n"), parse_type("n.r s n.l n.l")
    bank, john, loan = (random_tensor(sp.wires(noun), rng) for _ in range(3))
    grant = random_tensor(sp.wires(dt), rng)
    deny = random_tensor(sp.wires(dt), rng)
    closed = ditransitive_coordination(bank, grant, deny, (john, loan),
                                       mode="closed-form")
    explicit = ditransitive_coordination(bank, grant, deny, (john, loan),
                                         mode="explicit")
    assert closed.isclose(explicit)
    merged = grant.array * deny.array
    want = np.einsum("iklm,i,m,l->k", merged, bank.array, john.array,
                     loan.array)
    assert np.allclose(closed.array, want)


def test_ditransitive_equal_conjuncts_square_entries():
    rng = np.random.default_rng(5)
    sp = spaces(2, 3)
    noun, dt = parse_type("n"), parse_type("n.r s n.l n.l")
    bank, mary, loan = (random_tensor(sp.wires(noun), rng) for _ in range(3))
    verb = random_tensor(sp.wires(dt), rng)
    got = ditransitive_coordination(bank, verb, verb, loan, mary, mary)
    v3 = np.einsum("iklm,m->ikl", verb.array, mary.array)
    want = np.einsum("i,ikl,l->k", bank.array, v3 * v3, loan.array)
    assert np.allclose(got.array, want)


def test_ditransitive_argument_validation():
    rng = np.random.default_rng(6)
    sp = spaces(2, 2)
    noun, dt = parse_type("n"), parse_type("n.r s n.l n.l")
    bank, loan = (random_tensor(sp.wires(noun), rng) for _ in range(2))
    verb = random_tensor(sp.wires(dt), rng)
    with pytest.raises(errors.ShapeMismatch):
        ditransitive_coordination(bank, verb, verb, loan, obj1=bank)
    for caught in (ValueError, errors.FrobcoordError):
        with pytest.raises(caught):
            ditransitive_coordination(bank, verb, verb, loan, bank, bank,
                                      mode="sideways")
    # Verbs and objects on n:3 against a subject on n:2.
    sp3 = spaces(3, 2)
    verb3 = random_tensor(sp3.wires(dt), rng)
    loan3 = random_tensor(sp3.wires(noun), rng)
    with pytest.raises(errors.ShapeMismatch,
                       match="inconsistent dimensions for base 'n'"):
        ditransitive_coordination(bank, verb3, verb3, loan3, loan3, loan3)
    # Intransitive verbs take no per-conjunct objects.
    iv = random_tensor(sp.wires(parse_type("n.r s")), rng)
    with pytest.raises(errors.ShapeMismatch, match="do not reduce to s"):
        ditransitive_coordination(bank, iv, iv, loan, bank, bank)
    # Bare verbs take the shared objects as one (near, far) pair.
    for shared in (loan, (loan,)):
        with pytest.raises(errors.ShapeMismatch,
                           match=r"must be a \(near, far\) pair"):
            ditransitive_coordination(bank, verb, verb, shared)


def test_ditransitive_boolean_relations_intersect():
    rng = np.random.default_rng(7)
    for _ in range(10):
        du, dv = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        sp = spaces(du, dv)
        noun, dt = parse_type("n"), parse_type("n.r s n.l n.l")
        bank, mary, john, loan = (random_tensor(sp.wires(noun), rng, BOOLEAN)
                                  for _ in range(4))
        grant = random_tensor(sp.wires(dt), rng, BOOLEAN)
        deny = random_tensor(sp.wires(dt), rng, BOOLEAN)
        got = ditransitive_coordination(bank, grant, deny, loan, mary, john,
                                        mode="explicit")
        # Set-based oracle: quadruples surviving each relation and the
        # argument sets, intersected, then projected onto the s wire.
        rel = lambda m: {idx for idx in np.ndindex(*m.dims) if m.array[idx]}
        members = lambda v: {i for i in range(v.dims[0]) if v.array[i]}
        first = {(i, k, l) for (i, k, l, m) in rel(grant)
                 if m in members(mary)}
        second = {(i, k, l) for (i, k, l, m) in rel(deny)
                  if m in members(john)}
        want = {k for (i, k, l) in first & second
                if i in members(bank) and l in members(loan)}
        assert {k for k in range(dv) if got.array[k]} == want


def test_stripping_matches_spelled_out_form():
    rng = np.random.default_rng(8)
    for dn, ds in ((1, 1), (2, 3), (4, 2), (4, 4)):
        sp = spaces(dn, ds)
        noun, tv = parse_type("n"), parse_type("n.r s n.l")
        john = random_tensor(sp.wires(noun), rng)
        likes = random_tensor(sp.wires(tv), rng)
        poe = random_tensor(sp.wires(noun), rng)
        lovecraft = random_tensor(sp.wires(noun), rng)
        want = np.einsum("i,ikl,l->k", john.array, likes.array,
                         poe.array * lovecraft.array)
        for mode in ("closed-form", "explicit"):
            got = stripping_sentence(john, likes, poe, lovecraft, sp, mode)
            assert np.allclose(got.array, want)


def test_stripping_with_ones_reduces_to_plain_sentence():
    rng = np.random.default_rng(9)
    sp = spaces(3, 2)
    noun, tv = parse_type("n"), parse_type("n.r s n.l")
    john = random_tensor(sp.wires(noun), rng)
    likes = random_tensor(sp.wires(tv), rng)
    poe = random_tensor(sp.wires(noun), rng)
    everything = frobenius_zeta("n", 3)
    got = stripping_sentence(john, likes, poe, everything, sp)
    types = [noun, tv, noun]
    derivation = reduce(types, parse_type("s"))
    plain = evaluate(build_network(derivation, [john, likes, poe], sp))
    assert got.isclose(plain)


def test_stripping_on_equal_basis_objects():
    sp = spaces(3, 2)
    rng = np.random.default_rng(10)
    noun, tv = parse_type("n"), parse_type("n.r s n.l")
    john = random_tensor(sp.wires(noun), rng)
    likes = random_tensor(sp.wires(tv), rng)
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        obj = Tensor(sp.wires(noun), e)
        got = stripping_sentence(john, likes, obj, obj, sp)
        want = np.einsum("i,ikl,l->k", john.array, likes.array, e * e)
        assert np.allclose(got.array, want)


def test_stripping_shape_errors():
    sp = spaces(2, 2)
    rng = np.random.default_rng(11)
    noun, tv = parse_type("n"), parse_type("n.r s n.l")
    john = random_tensor(sp.wires(noun), rng)
    likes = random_tensor(sp.wires(tv), rng)
    with pytest.raises(errors.ShapeMismatch):
        stripping_sentence(likes, likes, john, john, sp)
    with pytest.raises(errors.ShapeMismatch):
        stripping_sentence(john, john, john, john, sp)


# Spaces that contradict the tensors: the first wrong wire is the subject's
# for n = 3 and the verb's sentence wire for s = 5.
@pytest.mark.parametrize("dims,where", [((3, 2), (0, 0)), ((2, 5), (1, 1))],
                         ids=["n3-over-2d-nouns", "s5"])
def test_stripping_checks_tensors_against_spaces(dims, where):
    rng = np.random.default_rng(11)
    sp = spaces(2, 2)
    john, poe, lovecraft = (random_tensor(sp.wires(parse_type("n")), rng)
                            for _ in range(3))
    likes = random_tensor(sp.wires(parse_type("n.r s n.l")), rng)
    with pytest.raises(errors.WireTypeMismatch) as exc:
        stripping_sentence(john, likes, poe, lovecraft, spaces(*dims))
    assert (exc.value.token, exc.value.wire) == where


def test_iterated_coordination_is_associative():
    rng = np.random.default_rng(12)
    wires = (Wire("n", 0, 4),)
    a, b, c = (random_tensor(wires, rng) for _ in range(3))
    left = coordinate_closed_form(coordinate_closed_form(a, b), c)
    right = coordinate_closed_form(a, coordinate_closed_form(b, c))
    assert left.isclose(right)


def test_boolean_coordination_is_idempotent():
    rng = np.random.default_rng(13)
    wires = (Wire("n", 0, 5),)
    a = random_tensor(wires, rng, BOOLEAN)
    assert coordinate_closed_form(a, a).isclose(a)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_random_conjunct_types_coordinate_to_the_merge(sr):
    # x (and x)^k means the entry-wise merge of its conjuncts for every
    # conjunct type x, in both modes.  Without the coordinator positions
    # the walk links two wires of a coordinator to each other for about one
    # random type in twelve, adjectives (n n.l) among them.
    rng = np.random.default_rng(41)
    for trial in range(60):
        x = PregroupType(
            SimpleType(str(rng.choice(["n", "s"])), int(rng.integers(-2, 3)))
            for _ in range(int(rng.integers(1, 4))))
        k = int(rng.integers(1, 4))
        lex = parse_lexicon(
            f"#semiring {sr.name}\n#type n 2\n#type s 3\n"
            + "".join(f"w{i} : {x} = @random({trial * 10 + i})\n"
                      for i in range(k + 1))
            + f"and : {coordinator_type(x)} = @conj\n")
        want = lex["w0"].tensor.array
        for i in range(1, k + 1):
            want = sr.mul(want, lex[f"w{i}"].tensor.array)
        words = ["w0"] + [w for i in range(1, k + 1) for w in ("and", f"w{i}")]
        for mode in ("explicit", "closed-form"):
            got = evaluate_sentence(words, lex, str(x), mode=mode)
            assert sr.allclose(got.array, want), (str(x), k, mode)


RED_AND_BLUE = """#semiring {sr}
#type n 2
#type s 2
red : n n.l = [1, 2, 3, 4]
blue : n n.l = [5, 6, 7, 8]
and : n n.r n n.l n.l.l n.l = @conj
car : n = [1, 1]
sleeps : n.r s = [1, 0, 0, 1]
"""


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_coordinated_adjectives_merge(sr):
    # The coordinator type of an adjective holds the contractible pair
    # n.l.l n.l; the coordinator's wires still link only to the conjuncts.
    text = RED_AND_BLUE.format(sr=sr.name)
    if sr is BOOLEAN:
        text = text.replace("[1, 2, 3, 4]", "[1, 0, 1, 1]").replace(
            "[5, 6, 7, 8]", "[1, 1, 0, 1]")
    lex = parse_lexicon(text)
    words = "red and blue car sleeps".split()
    grab = lambda w: lex[w].tensor.array.astype(float)
    want = np.einsum("ij,ij,j,ik->k", grab("red"), grab("blue"), grab("car"),
                     grab("sleeps"))
    for mode in ("explicit", "closed-form"):
        got = evaluate_sentence(words, lex, "s", mode=mode)
        assert sr.allclose(got.array, want if sr is REAL else want > 0)
    if sr is REAL:
        assert want.tolist() == [17.0, 53.0]
    types = [lex[w].type for w in words]
    assert reduce(types, parse_type("s")) != reduce(
        types, parse_type("s"), coordinators=[1])
    assert len(enumerate_reductions(types, parse_type("s"), 10)) == 4
    assert len(enumerate_reductions(types, parse_type("s"), 10,
                                    coordinators=[1])) == 1


@pytest.mark.parametrize("mode", ["explicit", "closed-form"])
def test_build_network_refuses_a_coordinator_linked_to_itself(mode):
    # Reduced without the coordinator position, "red and blue car sleeps"
    # links the coordinator's n.l.l n.l pair, whose contraction means
    # 11 60, not the merge of the adjectives.
    lex = parse_lexicon(RED_AND_BLUE.format(sr="real"))
    words = "red and blue car sleeps".split()
    types = [lex[w].type for w in words]
    tensors = [None if w == "and" else lex[w].tensor for w in words]
    with pytest.raises(errors.InvalidDerivation, match="token 1"):
        build_network(reduce(types, parse_type("s")), tensors, lex.spaces,
                      mode=mode)
    derivation = reduce(types, parse_type("s"), coordinators=[1])
    got = evaluate(build_network(derivation, tensors, lex.spaces, mode=mode))
    assert got.array.tolist() == [17.0, 53.0]
    assert evaluate_sentence(words, lex, "s", mode).array.tolist() == [
        17.0, 53.0]

from itertools import chain

import numpy as np
import pytest

from frobcoord import coordination, errors, evaluator
from frobcoord import lexicon as lexicon_module
from frobcoord.coordination import (coordinator_tensor,
                                    ditransitive_coordination)
from frobcoord.evaluator import (SpaceAssignment, TensorNetwork,
                                 build_network, evaluate, evaluate_sentence)
from frobcoord.lexicon import parse_lexicon
from frobcoord.pregroup import (Derivation, coordinator_type, parse_type,
                                reduce)
from frobcoord.semiring import BOOLEAN, REAL
from frobcoord.tensor import Tensor, Wire, random_tensor, tensor_product

from oracles import network_loops

SP = SpaceAssignment({"n": 2, "s": 3})


def rt(rng, type_text, sr=REAL, spaces=SP):
    return random_tensor(spaces.wires(parse_type(type_text)), rng, sr)


def test_space_assignment():
    assert SP.dim("n") == 2
    assert SP.wires(parse_type("n.r s")) == (Wire("n", 1, 2), Wire("s", 0, 3))
    with pytest.raises(errors.MissingSpace):
        SP.dim("q")
    with pytest.raises(errors.DimMismatch):
        SpaceAssignment({"n": 0})


@pytest.mark.parametrize("dim", [True, False, np.int64(2), 2.0, "2"])
def test_space_assignment_takes_only_python_ints(dim):
    with pytest.raises(errors.DimMismatch) as exc:
        SpaceAssignment({"n": dim})
    assert str(exc.value).endswith(f"must be a Python int >= 1, got {dim!r}")


def test_empty_networks_fail_cleanly():
    with pytest.raises(errors.EmptyType):
        evaluate(TensorNetwork([], [], []))
    with pytest.raises(errors.EmptyType):
        evaluator.plan_contraction((), (), ())
    empty = Derivation((), ())
    for semiring in (REAL, None):
        with pytest.raises(errors.EmptyType):
            build_network(empty, [], SP, semiring)


def test_build_network_john_sleeps():
    rng = np.random.default_rng(0)
    types = [parse_type("n"), parse_type("n.r s")]
    derivation = reduce(types, parse_type("s"))
    john, sleep = rt(rng, "n"), rt(rng, "n.r s")
    net = build_network(derivation, [john, sleep], SP)
    assert net.indices == ((0,), (0, 1))
    assert net.open_wires == ((1, 1),)
    got = evaluate(net)
    assert np.allclose(got.array, john.array @ sleep.array)


def test_a_network_is_immutable_and_carries_its_own_plan():
    # n = s = 2, so the transposed wires fit the array's shape either way.
    sp = SpaceAssignment({"n": 2, "s": 2})
    verb = Tensor(sp.wires(parse_type("n.r s")), [[1, 2], [3, 4]])
    derivation = reduce([parse_type("n.r s")], parse_type("n.r s"))
    net = build_network(derivation, [verb], sp)
    for name, value in (("nodes", [verb]), ("indices", [[0, 1]]),
                        ("open_wires", [(0, 1), (0, 0)]), ("plan", None)):
        with pytest.raises(AttributeError):
            setattr(net, name, value)
        with pytest.raises(AttributeError):
            delattr(net, name)
    for field in (net.nodes, net.indices, net.open_wires, *net.indices):
        assert type(field) is tuple
        with pytest.raises(TypeError):
            field[0] = field[-1]
    assert evaluate(net).array.tolist() == [[1, 2], [3, 4]]
    turned = TensorNetwork(net.nodes, net.indices, [(0, 1), (0, 0)])
    assert turned.open_wires == ((0, 1), (0, 0))
    assert turned.plan == evaluator.plan_contraction(
        ((0, 1),), ((2, 2),), ((0, 1), (0, 0)))
    got = evaluate(turned)
    assert got.array.tolist() == [[1, 3], [2, 4]]
    assert got.wires == (verb.wires[1], verb.wires[0])


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_both_modes_type_a_result_by_its_residual(sr):
    # The coordinator is one morphism on x.r x x.l, so in either mode the
    # result lives on the wires of the residual type, not on the node
    # wires its open wires land on (in closed form, wires of another
    # adjoint order).  The carrier and result wires are fixed fields.
    x = parse_type("n.r s")
    ctype, x_xl = coordinator_type(x), parse_type("n.r s s.l n")
    verb = rt(np.random.default_rng(20), "n.r s", sr)
    rows = ((Derivation((ctype,), ()), [None], SP.wires(ctype)),
            (reduce([x, ctype], x_xl, coordinators=[1]), [verb, None],
             SP.wires(x_xl)))
    assert str(x_xl) == "n.r s s.l n"
    for derivation, tensors, wires in rows:
        nets = {mode: build_network(derivation, tensors, SP, sr, mode)
                for mode in evaluator.MODES}
        got = {mode: evaluate(net) for mode, net in nets.items()}
        assert [t.wires for t in got.values()] == [wires, wires]
        assert _bits(got["explicit"]) == _bits(got["closed-form"])
        for net in nets.values():
            assert (net.semiring, net.result_wires) == (sr, wires)
            for name in ("semiring", "result_wires"):
                with pytest.raises(AttributeError):
                    setattr(net, name, None)


def test_bind_makes_every_per_call_word_check():
    # A short or long tensor list, or None at a word token, is refused
    # with WireTypeMismatch before anything is indexed.
    rng = np.random.default_rng(21)
    x = parse_type("n.r s")
    derivation = reduce([parse_type("n"), x, coordinator_type(x), x],
                        parse_type("s"), coordinators=[2])
    good = [rt(rng, "n"), rt(rng, "n.r s"), None, rt(rng, "n.r s")]
    for mode in evaluator.MODES:
        program = evaluator.compile_network(derivation, frozenset([2]), mode,
                                            SP, REAL)
        assert evaluate(program.bind(good)).isclose(evaluate(build_network(
            derivation, good, SP, REAL, mode)))
        for tensors, message in (
                ([], "token 0, wire 0: expected one tensor per token, "
                     "got 0 tensors"),
                (good[:-1], "token 3, wire 0: expected one tensor per "
                            "token, got 3 tensors"),
                (good + [good[0]], "token 5, wire 0: expected one tensor "
                                   "per token, got 5 tensors"),
                ([good[0], None, None, good[3]],
                 "token 1, wire 0: expected a word tensor, got None")):
            with pytest.raises(errors.WireTypeMismatch) as exc:
                program.bind(tensors)
            assert str(exc.value) == message
    # A row of words alone, bound to no tensor at all.
    john_sleeps = reduce([parse_type("n"), x], parse_type("s"))
    with pytest.raises(errors.WireTypeMismatch, match="got 0 tensors"):
        evaluator.compile_network(john_sleeps, frozenset(), "explicit", SP,
                                  REAL).bind([])


@pytest.mark.parametrize("mode", evaluator.MODES)
def test_bind_refuses_a_tensor_at_a_coordinator(mode):
    # "john sleeps and snores": a word tensor given where the program holds
    # a coordinator is refused, not dropped.
    rng = np.random.default_rng(22)
    x = parse_type("n.r s")
    derivation = reduce([parse_type("n"), x, coordinator_type(x), x],
                        parse_type("s"), coordinators=[2])
    john, sleeps, snores = rt(rng, "n"), rt(rng, "n.r s"), rt(rng, "n.r s")
    program = evaluator.compile_network(derivation, frozenset([2]), mode,
                                        SP, REAL)
    with pytest.raises(errors.WireTypeMismatch) as exc:
        program.bind([john, sleeps, john, snores])
    assert exc.value.token == 2
    assert str(exc.value) == ("token 2, wire 0: expected None at a "
                              "coordinator, got Tensor(n:2, real)")
    assert evaluate(program.bind([john, sleeps, None, snores])).order == 1


@pytest.mark.parametrize("mode", evaluator.MODES)
def test_build_network_of_no_tensors_is_a_count_mismatch(mode):
    # No tensor at all is no coordinator row: bind's count check refuses it.
    john_sleeps = reduce([parse_type("n"), parse_type("n.r s")],
                         parse_type("s"))
    with pytest.raises(errors.WireTypeMismatch) as exc:
        build_network(john_sleeps, [], SP, mode=mode)
    assert str(exc.value) == ("token 0, wire 0: expected one tensor per "
                              "token, got 0 tensors")


def test_build_network_reports_wire_mismatch():
    types = [parse_type("n"), parse_type("n.r s")]
    derivation = reduce(types, parse_type("s"))
    rng = np.random.default_rng(1)
    john = rt(rng, "n")
    bad = random_tensor([Wire("n", 1, 2), Wire("s", 0, 2)], rng)  # ds wrong
    with pytest.raises(errors.WireTypeMismatch) as exc:
        build_network(derivation, [john, bad], SP)
    assert exc.value.token == 1
    assert exc.value.wire == 1
    assert str(exc.value).endswith("expected s:3, got s:2")
    # A 2-dimensional john under n = 3 differs in dimension only.
    with pytest.raises(errors.WireTypeMismatch) as exc:
        build_network(derivation, [john, rt(rng, "n.r s")],
                      SpaceAssignment({"n": 3, "s": 3}))
    assert str(exc.value) == "token 0, wire 0: expected n:3, got n:2"


def test_build_network_rejects_mixed_semirings():
    types = [parse_type("n"), parse_type("n.r s")]
    derivation = reduce(types, parse_type("s"))
    rng = np.random.default_rng(2)
    with pytest.raises(errors.SemiringMismatch):
        build_network(derivation, [rt(rng, "n"), rt(rng, "n.r s", BOOLEAN)],
                      SP)


@pytest.mark.parametrize("case", ["tensor-count", "all-coordinators",
                                  "wire-count"])
def test_build_network_refuses_malformed_rows(case):
    john_sleeps = reduce([parse_type("n"), parse_type("n.r s")],
                         parse_type("s"))
    rng = np.random.default_rng(15)
    john = rt(rng, "n")
    if case == "tensor-count":
        with pytest.raises(errors.WireTypeMismatch,
                           match="one tensor per token, got 1 tensors"):
            build_network(john_sleeps, [john], SP)
    elif case == "all-coordinators":
        x = coordinator_type(parse_type("n"))
        with pytest.raises(ValueError, match="every token is a coordinator"):
            build_network(reduce([x], x), [None], SP)
        with pytest.raises(errors.FrobcoordError):
            build_network(reduce([x], x), [None], SP)
    else:
        short = random_tensor([Wire("n", 1, 2)], rng)  # n.r s without s
        with pytest.raises(errors.WireTypeMismatch,
                           match="expected 2 wires, got 1 wires"):
            build_network(john_sleeps, [john, short], SP)


def test_single_token_network():
    types = [parse_type("n")]
    derivation = reduce(types, parse_type("n"))
    rng = np.random.default_rng(3)
    v = rt(rng, "n")
    net = build_network(derivation, [v], SP)
    assert net.indices == ((0,),)
    assert evaluate(net).isclose(v)


def test_transitive_sentence_against_loop_oracle():
    rng = np.random.default_rng(4)
    types = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
    derivation = reduce(types, parse_type("s"))
    tensors = [rt(rng, "n"), rt(rng, "n.r s n.l"), rt(rng, "n")]
    net = build_network(derivation, tensors, SP)
    assert net.indices == ((0,), (0, 1, 2), (2,))
    assert net.open_wires == ((1, 1),)
    got = evaluate(net)
    want = network_loops([t.array for t in tensors], [[0], [0, 1, 2], [2]],
                         [(1, 1)])
    assert np.allclose(got.array, want)


def test_fully_closed_network_returns_scalar_tensor():
    rng = np.random.default_rng(5)
    u, v = rt(rng, "n"), rt(rng, "n.r")
    derivation = reduce([parse_type("n"), parse_type("n.r")], parse_type(""))
    got = evaluate(build_network(derivation, [u, v], SP))
    assert got.order == 0
    assert np.allclose(got.item(), float(u.array @ v.array))


def test_functoriality_on_basis_subjects():
    rng = np.random.default_rng(6)
    sleep = rt(rng, "n.r s")
    types = [parse_type("n"), parse_type("n.r s")]
    derivation = reduce(types, parse_type("s"))
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        john = Tensor(SP.wires(parse_type("n")), e)
        got = evaluate(build_network(derivation, [john, sleep], SP))
        assert np.allclose(got.array, sleep.array[i])


def test_multilinearity_in_each_word():
    rng = np.random.default_rng(7)
    types = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
    derivation = reduce(types, parse_type("s"))
    fixed = [rt(rng, "n"), rt(rng, "n.r s n.l"), rt(rng, "n")]
    for slot in range(3):
        a = rt(rng, str(types[slot]))
        b = rt(rng, str(types[slot]))
        alpha, beta = 1.75, -0.5
        combo = Tensor(a.wires, alpha * a.array + beta * b.array)

        def run(t):
            tensors = list(fixed)
            tensors[slot] = t
            return evaluate(build_network(derivation, tensors, SP)).array

        assert np.allclose(run(combo), alpha * run(a) + beta * run(b))


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_contraction_order_independence(sr):
    rng = np.random.default_rng(8)
    x = parse_type("n.r s")
    types = [parse_type("n"), x, coordinator_type(x), x]
    derivation = reduce(types, parse_type("s"))
    tensors = [rt(rng, "n", sr), rt(rng, "n.r s", sr),
               coordinator_tensor(x, SP, sr), rt(rng, "n.r s", sr)]
    net = build_network(derivation, tensors, SP)
    base = evaluate(net)
    count = len(set().union(*net.indices))
    for _ in range(12):
        order = rng.permutation(count).tolist()
        relabelled = TensorNetwork(
            net.nodes, [[order[l] for l in labs] for labs in net.indices],
            net.open_wires)
        assert evaluate(relabelled).isclose(base)


LEX = """
#semiring real
#type n 2
#type s 3
john : n = [1.0, 0.5]
mary : n = [0.25, 1.0]
men : n = @random(10)
women : n = @random(11)
football : n = @random(12)
sleeps : n.r s = @random(1)
snores : n.r s = @random(2)
knit : n.r s = @random(13)
watch : n.r s n.l = @random(3)
and : s.r n.r.r n.r s s.l n = @conj
and_s : s.r s s.l = @conj
"""


@pytest.fixture(scope="module")
def lexicon():
    return parse_lexicon(LEX)


def test_modes_coincide_without_coordination(lexicon):
    e = evaluate_sentence(["john", "sleeps"], lexicon, "s", mode="explicit")
    c = evaluate_sentence(["john", "sleeps"], lexicon, "s",
                          mode="closed-form")
    assert e.isclose(c)


def test_vp_coordination_closed_form(lexicon):
    got = evaluate_sentence(["john", "sleeps", "and", "snores"], lexicon,
                            "s", mode="closed-form")
    john = lexicon["john"].tensor.array
    sleep = lexicon["sleeps"].tensor.array
    snore = lexicon["snores"].tensor.array
    assert np.allclose(got.array, john @ (sleep * snore))
    explicit = evaluate_sentence(["john", "sleeps", "and", "snores"],
                                 lexicon, "s", mode="explicit")
    assert got.isclose(explicit)


def test_sentence_coordination_formula(lexicon):
    words = ["men", "watch", "football", "and_s", "women", "knit"]
    got = evaluate_sentence(words, lexicon, "s", mode="explicit")
    men = lexicon["men"].tensor.array
    watch = lexicon["watch"].tensor.array
    football = lexicon["football"].tensor.array
    women = lexicon["women"].tensor.array
    knit = lexicon["knit"].tensor.array
    first = np.einsum("i,ikj,j->k", men, watch, football)
    second = women @ knit
    assert np.allclose(got.array, first * second)
    closed = evaluate_sentence(words, lexicon, "s", mode="closed-form")
    assert got.isclose(closed)


def test_evaluate_sentence_errors(lexicon):
    with pytest.raises(errors.UnknownWord):
        evaluate_sentence(["john", "flies"], lexicon, "s")
    with pytest.raises(errors.UngrammaticalSentence):
        evaluate_sentence(["sleeps", "john"], lexicon, "s")
    with pytest.raises(errors.WireTypeMismatch):
        evaluate_sentence([("john", "n.r s")], lexicon, "s")
    with pytest.raises(ValueError):
        evaluate_sentence(["john", "sleeps"], lexicon, "s", mode="fast")
    with pytest.raises(errors.FrobcoordError):
        evaluate_sentence(["john", "sleeps"], lexicon, "s", mode="fast")


def test_declared_types_accepted(lexicon):
    got = evaluate_sentence([("john", "n"), ("sleeps", "n.r s")], lexicon,
                            "s")
    assert got.order == 1


DITRANSITIVE_LEX = """
#semiring real
#type n 2
#type s 3
bank : n = @random(20)
mary : n = @random(21)
john : n = @random(22)
loan : n = @random(23)
granted : n.r s n.l n.l = @random(24)
denied : n.r s n.l n.l = @random(25)
but : n s.r n.r.r n.r s n.l n.l.l s.l n = @conj
"""


def test_ditransitive_sentence_through_lexicon():
    lex = parse_lexicon(DITRANSITIVE_LEX)
    words = ["bank", "granted", "mary", "but", "denied", "john", "loan"]
    explicit = evaluate_sentence(words, lex, "s", mode="explicit")
    closed = evaluate_sentence(words, lex, "s", mode="closed-form")
    assert explicit.isclose(closed)
    grab = lambda w: lex[w].tensor.array
    g3 = np.einsum("iklm,m->ikl", grab("granted"), grab("mary"))
    d3 = np.einsum("iklm,m->ikl", grab("denied"), grab("john"))
    want = np.einsum("i,ikl,l->k", grab("bank"), g3 * d3, grab("loan"))
    assert np.allclose(explicit.array, want)


def test_nested_coordination_folds_left(lexicon):
    # "john sleeps and snores and sleeps": the second coordinator's left
    # conjunct contains the first, so collapses run innermost first.
    words = ["john", "sleeps", "and", "snores", "and", "sleeps"]
    explicit = evaluate_sentence(words, lexicon, "s", mode="explicit")
    closed = evaluate_sentence(words, lexicon, "s", mode="closed-form")
    assert explicit.isclose(closed)
    john = lexicon["john"].tensor.array
    sleep = lexicon["sleeps"].tensor.array
    snore = lexicon["snores"].tensor.array
    assert np.allclose(closed.array, john @ (sleep * snore * sleep))


PLAN_LEX = """
#type n 8
#type s 8
a : n = @random(1)
b : n = @random(2)
c : n = @random(3)
v : n.r s n.l = @random(4)
w : n.r s n.l = @random(5)
sleeps : n.r s = @random(6)
snores : n.r s = @random(7)
and_n : n.r n n.l = @conj
and_s : s.r s s.l = @conj
and_vp : s.r n.r.r n.r s s.l n = @conj
"""


@pytest.fixture
def matmul_shapes(monkeypatch):
    """The (m, k, n) shape of every REAL.matmul call while a test runs."""
    shapes = []
    plain_matmul = type(REAL).matmul

    def counting_matmul(a, b):
        shapes.append((a.shape[0], a.shape[1], b.shape[1]))
        return plain_matmul(REAL, a, b)

    monkeypatch.setattr(REAL, "matmul", counting_matmul)
    return shapes


@pytest.mark.parametrize("sentence", [
    "a v b", "a and_n b v c", "a v b and_n c", "a v b and_s c w a"])
def test_explicit_coordination_contracts_vectors_first(matmul_shapes,
                                                        sentence):
    # Contracting the d^3 coordinator with a d^3 verb before the nouns are
    # absorbed costs 8.5-9x the closed form's matmul work at d = 8.
    lex = parse_lexicon(PLAN_LEX)
    flops = {}
    for mode in ("explicit", "closed-form"):
        matmul_shapes.clear()
        evaluate_sentence(sentence.split(), lex, "s", mode=mode)
        flops[mode] = sum(2 * m * k * n for m, k, n in matmul_shapes)
        assert max(m * n for m, k, n in matmul_shapes) <= 8 ** 2
    assert flops["explicit"] <= 2 * flops["closed-form"]


def test_explicit_vp_coordination_multiplies_spiders(matmul_shapes):
    # The dense VP coordinator at d = 8 has 8**6 cells, and contracting it
    # took 532 608 matmul FLOPs with a 4 096-cell product; its two 8**3
    # copy spiders take 4 096 FLOPs and no product beyond d**2 cells.
    lex = parse_lexicon(PLAN_LEX)
    got = evaluate_sentence("a sleeps and_vp snores".split(), lex, "s",
                            mode="explicit")
    assert sum(2 * m * k * n for m, k, n in matmul_shapes) <= 8192
    assert max(m * n for m, k, n in matmul_shapes) <= 8 ** 2
    closed = evaluate_sentence("a sleeps and_vp snores".split(), lex, "s",
                               mode="closed-form")
    assert got.isclose(closed)


VP_CHAIN_LEX = """
#type n 2
#type s 2
john : n = @random(1)
v1 : n.r s = @random(2)
v2 : n.r s = @random(3)
v3 : n.r s = @random(4)
v4 : n.r s = @random(5)
v5 : n.r s = @random(6)
and : s.r n.r.r n.r s s.l n = @conj
"""

SVO_LEX = """
#type n 3
#type s 2
men : n = @random(1)
women : n = @random(2)
football : n = @random(3)
watch : n.r s n.l = @random(4)
knit : n.r s = @random(5)
and_n : n.r n n.l = @conj
and_s : s.r s s.l = @conj
"""


@pytest.mark.parametrize("text,sentence,plans", [
    (VP_CHAIN_LEX, "john v1 and v2 and v3 and v4 and v5", {
        "explicit": [(1, 2, 4), (2, 2, 2), (2, 2, 4), (2, 2, 4), (2, 2, 4),
                     (2, 2, 4), (4, 2, 2), (2, 4, 2), (4, 2, 2), (2, 4, 2),
                     (4, 2, 2), (2, 4, 2), (2, 4, 1)],
        "closed-form": []}),
    (SVO_LEX, "men watch football and_s women knit", {
        "explicit": [(1, 3, 2), (4, 2, 1), (1, 3, 6), (2, 3, 1), (1, 2, 2)],
        "closed-form": [(1, 3, 2), (1, 3, 6), (2, 3, 1)]}),
    (SVO_LEX, "men and_n women watch football", {
        "explicit": [(6, 3, 1), (1, 3, 9), (3, 3, 1), (1, 3, 2)],
        "closed-form": [(1, 3, 6), (2, 3, 1)]}),
    (LEX, "john sleeps and snores and sleeps", {
        "explicit": [(1, 2, 4), (3, 2, 2), (3, 2, 4), (3, 2, 6), (9, 3, 2),
                     (3, 6, 3), (1, 9, 3)],
        "closed-form": []}),
], ids=["vp-chain", "s-and-s", "coordinated-subject", "nested"])
def test_contraction_plans_are_pinned(matmul_shapes, text, sentence, plans):
    # Every matmul's (m, k, n), in order.  A change to the step rule
    # changes these lists and must update them on purpose.
    lex = parse_lexicon(text)
    for mode, want in plans.items():
        matmul_shapes.clear()
        evaluate_sentence(sentence.split(), lex, "s", mode=mode)
        assert matmul_shapes == want, mode


def _refuse_dense_coordinator(monkeypatch):
    def no_coordinator(*args):
        raise AssertionError("built the dense coordinator")

    monkeypatch.setattr(coordination, "coordinator_tensor", no_coordinator)
    monkeypatch.setattr(lexicon_module, "coordinator_tensor", no_coordinator)


@pytest.mark.parametrize("sr", ["real", "bool"])
def test_explicit_vp_chain_at_dimension_64(monkeypatch, sr):
    # The dense VP coordinator at n = s = 64 would have 64**6 cells (550
    # GB); its spiders have 2 * 64**3.
    _refuse_dense_coordinator(monkeypatch)
    lex = parse_lexicon(f"#semiring {sr}\n#type n 64\n#type s 64\n"
                        "john : n = @random(1)\n"
                        "sleeps : n.r s = @random(2)\n"
                        "snores : n.r s = @random(3)\n"
                        "knits : n.r s = @random(4)\n"
                        "and : s.r n.r.r n.r s s.l n = @conj\n")
    words = "john sleeps and snores and knits".split()
    explicit = evaluate_sentence(words, lex, "s", mode="explicit")
    closed = evaluate_sentence(words, lex, "s", mode="closed-form")
    assert explicit.isclose(closed)
    grab = lambda w: lex[w].tensor.array.astype(float)
    want = grab("john") @ (grab("sleeps") * grab("snores") * grab("knits"))
    assert lex.semiring.allclose(
        explicit.array, want if lex.semiring is REAL else want > 0)


def test_sixty_conjunct_vp_chain():
    # Entries near 1, so the entry-wise product of 60 verbs stays near 1.
    verbs = {"v0": [1.01, 0.98, 0.99, 1.02], "v1": [0.97, 1.03, 1.0, 0.99],
             "v2": [1.02, 1.0, 0.98, 1.01]}
    lex = parse_lexicon("#type n 2\n#type s 2\njohn : n = [0.5, 2.0]\n"
                        + "".join(f"{v} : n.r s = {cells}\n"
                                  for v, cells in verbs.items())
                        + "and : s.r n.r.r n.r s s.l n = @conj\n")
    words = ["john", "v0"] + [w for i in range(1, 60)
                              for w in ("and", f"v{i % 3}")]
    explicit = evaluate_sentence(words, lex, "s", mode="explicit")
    closed = evaluate_sentence(words, lex, "s", mode="closed-form")
    assert explicit.isclose(closed)
    merged = np.prod([np.reshape(verbs[f"v{i % 3}"], (2, 2))
                      for i in range(60)], axis=0)
    assert np.allclose(explicit.array, np.array([0.5, 2.0]) @ merged,
                       rtol=1e-10)


def test_build_network_spiders_need_a_coordinator_type():
    derivation = reduce([parse_type("n"), parse_type("n.r s")],
                        parse_type("s"))
    sleeps = random_tensor(SP.wires(parse_type("n.r s")),
                           np.random.default_rng(13))
    with pytest.raises(errors.WireTypeMismatch):
        build_network(derivation, [None, sleeps], SP)
    # The last leg of the n.r factor's spider should be n, not n.l.
    bad = parse_type("s.r n.r.r n.r s s.l n.l")
    with pytest.raises(errors.WireTypeMismatch) as exc:
        build_network(reduce([bad], bad), [None], SP, REAL)
    assert (exc.value.token, exc.value.wire) == (0, 5)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_wire_in_two_edges_is_a_copy_spider(sr):
    # u's wire shares its label with v's and with w's: the three wires are
    # one index, as if joined through an explicit three-legged spider.
    rng = np.random.default_rng(9)
    u, v, w = rt(rng, "n", sr), rt(rng, "n", sr), rt(rng, "n.r s", sr)
    hyper = evaluate(TensorNetwork([u, v, w], [[0], [0], [0, 1]], [(2, 1)]))
    spider = coordinator_tensor(parse_type("n"), SP, sr)
    explicit = evaluate(TensorNetwork(
        [u, v, w, spider], [[0], [1], [2, 3], [0, 1, 2]], [(2, 1)]))
    assert hyper.isclose(explicit)
    uv = sr.mul(u.array, v.array)
    assert sr.allclose(hyper.array,
                       sr.sum(sr.mul(uv[:, None], w.array), axis=0))


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_open_wire_in_an_edge_keeps_its_index(sr):
    rng = np.random.default_rng(10)
    u, v = rt(rng, "n", sr), rt(rng, "n", sr)
    merged = evaluate(TensorNetwork([u, v], [[0], [0]], [(0, 0)]))
    assert sr.allclose(merged.array, sr.mul(u.array, v.array))
    # Two open wires with one label carry copies of the same index.
    copied = evaluate(TensorNetwork([u, v], [[0], [0]], [(0, 0), (1, 0)]))
    want = np.zeros((2, 2), dtype=sr.dtype)
    np.fill_diagonal(want, sr.mul(u.array, v.array))
    assert sr.allclose(copied.array, want)


def test_malformed_networks_are_rejected():
    rng = np.random.default_rng(14)
    u, w = rt(rng, "n"), rt(rng, "n.r s")  # dims 2; 2 and 3
    with pytest.raises(errors.DimMismatch):  # one label, dims 2 and 3
        evaluate(TensorNetwork([u, w], [[1], [0, 1]], [(1, 1)]))
    for outside in ((1, 2), (2, 0), (-1, 0)):
        with pytest.raises(errors.DimMismatch):
            evaluate(TensorNetwork([u, w], [[0], [0, 1]], [outside]))
    with pytest.raises(errors.ShapeMismatch):  # two wires, one label
        evaluate(TensorNetwork([u, w], [[0], [0]], [(0, 0)]))
    with pytest.raises(errors.ShapeMismatch):  # two nodes, one label tuple
        evaluate(TensorNetwork([u, w], [[0]], []))


def _ditransitive_at_eight(monkeypatch, sr, mode):
    # The dense coordinator for n.r s n.l n.l at n = s = 8 would have
    # 8**12 = 6.9e10 cells; building it at all fails here at once.  Closed
    # form builds no copy spider either.
    _refuse_dense_coordinator(monkeypatch)
    if mode == "closed-form":
        def no_spider(*args):
            raise AssertionError("built a copy spider")

        monkeypatch.setattr(evaluator, "_copy_array", no_spider)
    sp = SpaceAssignment({"n": 8, "s": 8})
    rng = np.random.default_rng(11)
    bank, john, loan = (rt(rng, "n", sr, sp) for _ in range(3))
    grant, deny = (rt(rng, "n.r s n.l n.l", sr, sp) for _ in range(2))
    got = ditransitive_coordination(bank, grant, deny, (john, loan),
                                    mode=mode)
    as_float = lambda t: t.array.astype(float)
    want = np.einsum("iklm,iklm,i,m,l->k", as_float(grant), as_float(deny),
                     as_float(bank), as_float(john), as_float(loan))
    assert sr.allclose(got.array, want if sr is REAL else want > 0)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_closed_form_ditransitive_never_builds_the_coordinator(monkeypatch,
                                                               sr):
    _ditransitive_at_eight(monkeypatch, sr, "closed-form")


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_explicit_ditransitive_never_builds_the_coordinator(monkeypatch, sr):
    _ditransitive_at_eight(monkeypatch, sr, "explicit")


COORD_LEX = """
#semiring {sr}
#type n 3
a : n = @random(1)
b : n = @random(2)
and_n : n.r n n.l = @conj
"""


@pytest.mark.parametrize("sr", ["real", "bool"])
@pytest.mark.parametrize("words,target", [
    ("a and_n", "n n.l"), ("and_n b", "n.r n"), ("and_n", "n.r n n.l")])
def test_closed_form_with_surviving_coordinator_legs(sr, words, target):
    # Coordinators with legs left over in the result: closed form keeps
    # them as copies of the spider's index, or as the spider itself when
    # nothing else holds it.
    lex = parse_lexicon(COORD_LEX.format(sr=sr))
    explicit = evaluate_sentence(words.split(), lex, target, mode="explicit")
    closed = evaluate_sentence(words.split(), lex, target,
                               mode="closed-form")
    assert closed.isclose(explicit)


def _random_networks(sr, seed, trials, node_range):
    # Random labels spread over a number of nodes in range(*node_range),
    # numbered sparsely and out of order: a label twice on one node, a
    # label on several nodes, a label on one wire only and open wires
    # repeated or sharing a label all occur.
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        class_dims = rng.integers(1, 4, size=rng.integers(1, 6))
        names = (3 * rng.permutation(len(class_dims)) + 1).tolist()
        nodes, indices = [], []
        for n in range(rng.integers(*node_range)):
            cls = rng.integers(0, len(class_dims), size=rng.integers(0, 4))
            indices.append([names[c] for c in cls])
            nodes.append(random_tensor(
                [Wire("n", 0, int(class_dims[c])) for c in cls], rng, sr))
        every = [(n, w) for n, labs in enumerate(indices)
                 for w in range(len(labs))]
        open_wires = [every[k] for k in
                      rng.integers(0, len(every), size=rng.integers(0, 4))] \
            if every else []
        yield TensorNetwork(nodes, indices, open_wires)


def _random_networks_against_loops(sr, seed, trials, node_range):
    for net in _random_networks(sr, seed, trials, node_range):
        got = evaluate(net)
        want = network_loops([t.array for t in net.nodes], net.indices,
                             net.open_wires)
        assert sr.allclose(got.array, want if sr is REAL else want > 0)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_random_hyperedge_networks_against_loops(sr):
    _random_networks_against_loops(sr, 12, 150, (1, 5))


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_random_star_networks_against_loops(sr):
    # 12 to 20 nodes over at most five labels: labels on more than
    # _PAIRED_HOLDERS nodes, which fold in as stars, are common.
    assert evaluator._PAIRED_HOLDERS < 12
    _random_networks_against_loops(sr, 16, 60, (12, 21))


def _bits(tensor):
    return tensor.array.dtype, tensor.array.shape, tensor.array.tobytes()


def test_plan_cache_is_keyed_by_structure_not_words(lexicon):
    # One compile per derivation, not per choice of words; another mode,
    # dimension or carrier is another program.
    programs, plans = evaluator.compile_network, evaluator.plan_contraction
    programs.cache_clear()
    plans.cache_clear()
    evaluate_sentence(["john", "sleeps", "and", "snores"], lexicon, "s",
                      mode="closed-form")
    assert programs.cache_info().misses == plans.cache_info().misses == 1
    got = evaluate_sentence(["mary", "knit", "and", "sleeps"], lexicon, "s",
                            mode="closed-form")
    info = programs.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert plans.cache_info().hits == 0  # the program carries its plan
    grab = lambda w: lexicon[w].tensor.array
    assert np.allclose(got.array,
                       grab("mary") @ (grab("knit") * grab("sleeps")))
    # The other mode is another structure, so another program and plan.
    evaluate_sentence(["mary", "knit", "and", "sleeps"], lexicon, "s",
                      mode="explicit")
    assert programs.cache_info().misses == plans.cache_info().misses == 2
    # Another dimension is another program and plan; another carrier is
    # another program of the same plan.
    for text, new_plan in ((LEX.replace("#type s 3", "#type s 4"), True),
                           (LEX.replace("#semiring real", "#semiring bool")
                            .replace("[1.0, 0.5]", "[1, 0]")
                            .replace("[0.25, 1.0]", "[0, 1]"), False)):
        before = plans.cache_info().misses
        evaluate_sentence(["mary", "knit", "and", "sleeps"],
                          parse_lexicon(text), "s", mode="explicit")
        assert plans.cache_info().misses == before + new_plan
    assert programs.cache_info().misses == programs.cache_info().currsize == 4


@pytest.mark.parametrize("sr", ["real", "bool"])
@pytest.mark.parametrize("mode", ["explicit", "closed-form"])
def test_cached_plan_replays_bit_for_bit(sr, mode):
    lex = parse_lexicon(PLAN_LEX.replace("#type n 8", f"#semiring {sr}\n"
                                         "#type n 8"))
    sentences = ["a v b", "a and_n b v c", "a v b and_s c w a",
                 "a sleeps and_vp snores and_vp sleeps", "b w a and_n c"]
    for words in sentences:
        evaluator.compile_network.cache_clear()
        evaluator.plan_contraction.cache_clear()
        cold = evaluate_sentence(words.split(), lex, "s", mode=mode)
        warm = evaluate_sentence(words.split(), lex, "s", mode=mode)
        assert evaluator.compile_network.cache_info().hits == 1
        assert _bits(warm) == _bits(cold), words


def _refusal(call):
    with pytest.raises(errors.FrobcoordError) as exc:
        call()
    return type(exc.value), str(exc.value), vars(exc.value)


def test_a_warm_program_checks_every_tensor():
    # The program is compiled from types alone, so each tensor is checked
    # on every bind, with the error a cold build raises.
    rng = np.random.default_rng(18)
    types = [parse_type("n"), parse_type("n.r s")]
    derivation = reduce(types, parse_type("s"))
    john = rt(rng, "n")
    wrong = {"wire": random_tensor([Wire("n", 1, 2), Wire("s", 0, 2)], rng),
             "count": random_tensor([Wire("n", 1, 2)], rng),
             "carrier": rt(rng, "n.r s", BOOLEAN)}
    for tensor in wrong.values():
        build = lambda: build_network(derivation, [john, tensor], SP)
        evaluator.compile_network.cache_clear()
        cold = _refusal(build)
        build_network(derivation, [john, rt(rng, "n.r s")], SP)
        assert evaluator.compile_network.cache_info().currsize == 1
        assert _refusal(build) == cold
        assert evaluator.compile_network.cache_info().hits >= 1
    evaluator.compile_network.cache_clear()
    assert _refusal(lambda: build_network(derivation, [john, wrong["wire"]],
                                          SP))[1:] == (
        "token 1, wire 1: expected s:3, got s:2",
        {"token": 1, "wire": 1, "expected": "s:3", "actual": "s:2"})
    assert _refusal(lambda: build_network(
        derivation, [john, wrong["carrier"]], SP))[:2] == (
        errors.SemiringMismatch, "token 1 carries bool, expected real")


def test_equal_space_assignments_share_one_program():
    rng = np.random.default_rng(19)
    derivation = reduce([parse_type("n"), parse_type("n.r s")],
                        parse_type("s"))
    tensors = [rt(rng, "n"), rt(rng, "n.r s")]
    twin = SpaceAssignment({"s": 3, "n": 2})
    assert twin == SP and hash(twin) == hash(SP) and twin is not SP
    programs = evaluator.compile_network
    programs.cache_clear()
    one = build_network(derivation, tensors, SP)
    two = build_network(derivation, tensors, twin)
    info = programs.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert two.plan is one.plan
    build_network(derivation, tensors, SpaceAssignment({"n": 2, "s": 3,
                                                        "p": 1}))
    assert programs.cache_info().currsize == 2


def test_refused_networks_are_not_cached():
    programs = evaluator.compile_network
    programs.cache_clear()
    # A coordinator linked to itself: "red and blue car sleeps" reduced
    # without the coordinator position.
    lex = parse_lexicon("#type n 2\n#type s 2\nred : n n.l = [1, 2, 3, 4]\n"
                        "blue : n n.l = [5, 6, 7, 8]\n"
                        "and : n n.r n n.l n.l.l n.l = @conj\n"
                        "car : n = [1, 1]\nsleeps : n.r s = [1, 0, 0, 1]\n")
    words = "red and blue car sleeps".split()
    derivation = reduce([lex[w].type for w in words], parse_type("s"))
    tensors = [None if w == "and" else lex[w].tensor for w in words]
    # A lone coordinator of 22 factors: 66 wires, past numpy's axis limit.
    x = parse_type(" ".join(["n"] * 22))
    ctype = coordinator_type(x)
    one = SpaceAssignment({"n": 1})
    for _ in range(2):
        for mode in evaluator.MODES:
            with pytest.raises(errors.InvalidDerivation, match="token 1"):
                build_network(derivation, tensors, lex.spaces, mode=mode)
        with pytest.raises(errors.OutOfMemory, match="66 axes"):
            build_network(Derivation((ctype,), ()), [None], one, REAL)
    assert programs.cache_info().currsize == 0


def test_lexicon_reloads_leave_one_program_per_derivation():
    programs = evaluator.compile_network
    programs.cache_clear()
    sentences = (["john", "sleeps", "and", "snores"],
                 ["mary", "knit", "and", "sleeps"], ["men", "watch", "women"])
    for _ in range(1000):
        lex = parse_lexicon(LEX)
        for words in sentences:
            evaluate_sentence(words, lex, "s", mode="closed-form")
    info = programs.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits == 3 * 1000 - 2


def test_a_product_with_nothing_summed_keeps_each_entry_bit_for_bit():
    # An outer product and the closed form's merge multiply each pair of
    # entries once, as frobenius_mu does, so a negative entry times zero
    # keeps its sign.
    u = Tensor([Wire("n", 0, 2)], [-1.0, 2.0])
    v = Tensor([Wire("n", 0, 2)], [0.0, -3.0])
    assert _bits(tensor_product(u, v)) == _bits(Tensor(
        u.wires + v.wires, np.multiply.outer(u.array, v.array)))
    merged = evaluate(TensorNetwork([u, v], [[0], [0]], [(0, 0)]))
    assert _bits(merged) == _bits(coordination.frobenius_mu(u, v))
    assert np.signbit(merged.array[0])


def test_malformed_networks_are_never_cached():
    rng = np.random.default_rng(15)
    u, w = rt(rng, "n"), rt(rng, "n.r s")  # dims 2; 2 and 3
    plans = evaluator.plan_contraction
    plans.cache_clear()
    bad = [(errors.ShapeMismatch, [[0], [0]], [(0, 0)]),
           (errors.DimMismatch, [[1], [0, 1]], [(1, 1)]),
           (errors.DimMismatch, [[0], [0, 1]], [(1, 2)])]
    for error, indices, open_wires in bad:
        for _ in range(2):
            with pytest.raises(error):
                evaluate(TensorNetwork([u, w], indices, open_wires))
    assert plans.cache_info().currsize == 0
    # The carrier check runs on every construction, after the plan lookup.
    good = TensorNetwork([u, w], [[0], [0, 1]], [(1, 1)])
    evaluate(good)
    for _ in range(2):
        with pytest.raises(errors.SemiringMismatch):
            TensorNetwork([u, rt(rng, "n.r s", BOOLEAN)], good.indices,
                          good.open_wires)
    assert plans.cache_info().currsize == 1


def test_plan_cache_stays_within_its_bound():
    plans = evaluator.plan_contraction
    plans.cache_clear()
    bound = plans.cache_info().maxsize
    for d in range(1, bound + 20):
        v = Tensor([Wire("n", 0, d)], np.ones(d))
        assert evaluate(TensorNetwork([v, v], [[0], [0]], [])).item() == d
        assert plans.cache_info().currsize <= bound
    assert plans.cache_info().currsize == bound


def test_240_conjunct_vp_chain_folds_its_hyperedges():
    # Closed form joins 241 subject wires into one index and 240 sentence
    # wires into another; explicit mode has 478 spiders instead.
    verbs = {"v0": [1.001, 0.998, 0.999, 1.002],
             "v1": [0.997, 1.003, 1.0, 0.999],
             "v2": [1.002, 1.0, 0.998, 1.001]}
    lex = parse_lexicon("#type n 2\n#type s 2\njohn : n = [0.5, 2.0]\n"
                        + "".join(f"{v} : n.r s = {cells}\n"
                                  for v, cells in verbs.items())
                        + "and : s.r n.r.r n.r s s.l n = @conj\n")
    words = ["john", "v0"] + [w for i in range(1, 240)
                              for w in ("and", f"v{i % 3}")]
    explicit = evaluate_sentence(words, lex, "s", mode="explicit")
    closed = evaluate_sentence(words, lex, "s", mode="closed-form")
    assert explicit.isclose(closed)
    merged = np.ones((2, 2))
    for i in range(240):
        merged = merged * np.reshape(verbs[f"v{i % 3}"], (2, 2))
    assert np.allclose(closed.array, np.array([0.5, 2.0]) @ merged,
                       rtol=1e-10)


def _pinned_sentences(sr):
    """Runs of the pinned plans' sentences over ``sr``, in both modes."""
    for text, sentence in ((VP_CHAIN_LEX,
                            "john v1 and v2 and v3 and v4 and v5"),
                           (SVO_LEX, "men watch football and_s women knit"),
                           (SVO_LEX, "men and_n women watch football"),
                           (LEX, "john sleeps and snores and sleeps")):
        text = text.replace("#semiring real\n", "")
        if sr is BOOLEAN:  # LEX's two real literals
            text = text.replace("[1.0, 0.5]", "[1, 0]").replace(
                "[0.25, 1.0]", "[0, 1]")
        lex = parse_lexicon(f"#semiring {sr.name}\n" + text)
        for mode in ("explicit", "closed-form"):
            yield lambda lex=lex, words=sentence.split(), mode=mode: \
                evaluate_sentence(words, lex, "s", mode=mode)


def _every_run(sr):
    """The pinned sentences and the random-network tests' networks."""
    yield from _pinned_sentences(sr)
    for net in chain(_random_networks(sr, 12, 150, (1, 5)),
                     _random_networks(sr, 16, 60, (12, 21))):
        yield lambda net=net: evaluator.evaluate(net)


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_max_cells_is_the_largest_array_evaluate_makes(monkeypatch, sr):
    # Every array that evaluate makes comes from a prep einsum (possibly a
    # diagonal view), a step (a matmul, a batch einsum or, when a batch step
    # sums nothing, np.multiply) or the copy's np.zeros.  Besides those, reshaping a transposed operand may copy
    # it: such copies are recorded apart, and each is no larger than an
    # input node or an array counted in max_cells.
    nets, plans, made, reshaped = [], [], [], []
    plain = (evaluator.evaluate, type(sr).matmul, np.einsum, np.zeros,
             np.multiply)

    def evaluate_(net):
        # Every network carries the plan it replays.
        nets.append(net)
        plans.append(net.plan)
        return plain[0](net)

    def note(*operands):
        known = [t.array for t in nets[0].nodes] + made
        reshaped.extend(a.size for a in operands
                        if not any(np.may_share_memory(a, k) for k in known))

    def matmul(a, b):
        note(a, b)
        made.append(plain[1](sr, a, b))
        return made[-1]

    def einsum(*args):
        operands = [a for a in args if isinstance(a, np.ndarray)]
        if len(operands) == 2:
            note(*operands)
        made.append(np.asarray(plain[2](*args)))
        return made[-1]

    def multiply(*args, **kwargs):
        # Only evaluate's own: realising a lexicon entry multiplies too.
        out = plain[4](*args, **kwargs)
        if nets:
            note(*args)
            made.append(out)
        return out

    def zeros(*args, **kwargs):
        # Only evaluate's own: build_network makes copy spiders before.
        out = plain[3](*args, **kwargs)
        if nets:
            made.append(out)
        return out

    for module, name, fn in ((evaluator, "evaluate", evaluate_),
                             (sr, "matmul", matmul), (np, "einsum", einsum),
                             (np, "zeros", zeros), (np, "multiply", multiply)):
        monkeypatch.setattr(module, name, fn)
    copies = 0
    for run in _every_run(sr):
        for record in (nets, plans, made, reshaped):
            record.clear()
        run()
        (plan,), (net,) = plans, nets
        assert plan.max_cells == max([a.size for a in made], default=0)
        inputs = [t.array.size for t in net.nodes]
        assert max(reshaped, default=0) <= max(plan.max_cells, *inputs)
        copies += len(reshaped)
    assert copies > 0


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_evaluate_makes_no_broadcast_product(monkeypatch, sr):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate called sr.mul or sr.sum")

    monkeypatch.setattr(sr, "mul", refuse)
    monkeypatch.setattr(sr, "sum", refuse)
    for run in _every_run(sr):
        run()


def test_prep_past_einsum_subscript_limit_is_refused():
    # 53 distinct labels on one node, one of them on two wires: the prep
    # einsum would need 53 subscripts, one past numpy's limit.
    labels = list(range(53)) + [0]
    node = Tensor([Wire("n", 0, 1)] * len(labels), np.ones((1,) * 54))
    with pytest.raises(errors.OutOfMemory, match="the prep einsum of node 0 "
                       "needs 53 subscripts; numpy allows 52"):
        evaluate(TensorNetwork([node], [labels], [(0, 1)]))
    # Private labels alone need a prep call too; with every wire open, no
    # einsum runs.
    with pytest.raises(errors.OutOfMemory, match="needs 54 subscripts"):
        evaluate(TensorNetwork([node], [list(range(54))], [(0, 0)]))
    assert evaluate(TensorNetwork([node], [list(range(54))], [
        (0, w) for w in range(54)])).array.shape == (1,) * 54


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_components_that_share_nothing_meet_in_a_batch_step(monkeypatch, sr):
    # An outer product is a batch step of a single entry, which sums
    # nothing.  Run as a semiring matrix product of inner size 1, it made
    # a dense coordinator of n.r s at d = 16 about three times slower on
    # booleans.  The coordinator's program is compiled afresh, so that its
    # plan is looked up here.
    plans, plain = [], evaluator.plan_contraction
    evaluator.compile_network.cache_clear()

    def planned(*key):
        plans.append(plain(*key))
        return plans[-1]

    def no_matmul(a, b):
        raise AssertionError("an outer product called matmul")

    monkeypatch.setattr(evaluator, "plan_contraction", planned)
    monkeypatch.setattr(sr, "matmul", no_matmul)
    rng = np.random.default_rng(16)
    u, v = rt(rng, "n", sr), rt(rng, "n.r s", sr)
    outer = tensor_product(u, v)
    spiders = coordinator_tensor(parse_type("n.r s"), SP, sr)
    # u has 2 cells and v 6; the coordinator's spiders 2**3 and 3**3.
    for plan, m, n in zip(plans, (2, 8), (6, 27), strict=True):
        (step,) = plan.steps
        assert step.batch
        assert (step.shape_a, step.shape_b) == ((1, m, 1), (1, 1, n))
    assert np.array_equal(outer.array, sr.mul(u.array[:, None, None],
                                              v.array))
    assert spiders.array.sum() == 2 * 3


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_no_result_is_a_view_of_a_larger_input(sr):
    # A prep call that only keeps a diagonal gets a view from einsum; the
    # result must not hold the whole input buffer alive.
    rng = np.random.default_rng(17)
    m = random_tensor([Wire("n", 0, 512)] * 2, rng, sr)
    t = random_tensor([Wire("n", 0, 3), Wire("n", 0, 3), Wire("s", 0, 2)],
                      rng, sr)
    cases = ((m, [[0, 0]], [(0, 0)], np.diagonal(m.array)),
             (t, [[0, 0, 1]], [(0, 0), (0, 2)],
              np.diagonal(t.array).transpose()))
    for node, indices, open_wires, want in cases:
        got = evaluate(TensorNetwork([node], indices, open_wires))
        assert not np.shares_memory(got.array, node.array)
        assert np.array_equal(got.array, want)
        assert not got.array.flags.writeable
    # A permutation of every wire may stay a view: it is the input's size.
    turned = evaluate(TensorNetwork([t], [[0, 1, 2]], [(0, 2), (0, 0),
                                                       (0, 1)]))
    assert np.array_equal(turned.array, t.array.transpose(2, 0, 1))

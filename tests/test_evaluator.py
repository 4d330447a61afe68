import numpy as np
import pytest

from frobcoord import coordination, errors
from frobcoord import lexicon as lexicon_module
from frobcoord.coordination import (coordinator_tensor,
                                    ditransitive_coordination)
from frobcoord.evaluator import (SpaceAssignment, TensorNetwork,
                                 build_network, evaluate, evaluate_sentence)
from frobcoord.lexicon import parse_lexicon
from frobcoord.pregroup import coordinator_type, parse_type, reduce
from frobcoord.semiring import BOOLEAN, REAL
from frobcoord.tensor import Tensor, Wire, random_tensor

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


def test_build_network_john_sleeps():
    rng = np.random.default_rng(0)
    types = [parse_type("n"), parse_type("n.r s")]
    derivation = reduce(types, parse_type("s"))
    john, sleep = rt(rng, "n"), rt(rng, "n.r s")
    net = build_network(derivation, [john, sleep], SP)
    assert net.edges == [((0, 0), (1, 0))]
    assert net.open_wires == [(1, 1)]
    got = evaluate(net)
    assert np.allclose(got.array, john.array @ sleep.array)


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


def test_build_network_rejects_mixed_semirings():
    types = [parse_type("n"), parse_type("n.r s")]
    derivation = reduce(types, parse_type("s"))
    rng = np.random.default_rng(2)
    with pytest.raises(errors.SemiringMismatch):
        build_network(derivation, [rt(rng, "n"), rt(rng, "n.r s", BOOLEAN)],
                      SP)


def test_single_token_network():
    types = [parse_type("n")]
    derivation = reduce(types, parse_type("n"))
    rng = np.random.default_rng(3)
    v = rt(rng, "n")
    net = build_network(derivation, [v], SP)
    assert net.edges == []
    assert evaluate(net).isclose(v)


def test_transitive_sentence_against_loop_oracle():
    rng = np.random.default_rng(4)
    types = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
    derivation = reduce(types, parse_type("s"))
    tensors = [rt(rng, "n"), rt(rng, "n.r s n.l"), rt(rng, "n")]
    net = build_network(derivation, tensors, SP)
    assert len(net.edges) == 2
    assert [w for w in net.open_wires] == [(1, 1)]
    got = evaluate(net)
    want = network_loops([t.array for t in tensors], net.edges,
                         net.open_wires)
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
    for _ in range(12):
        order = rng.permutation(len(net.edges))
        shuffled = TensorNetwork(net.nodes, [net.edges[k] for k in order],
                                 net.open_wires)
        assert evaluate(shuffled).isclose(base)


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
    # u's wire sits in an edge to v and in one to w: the three wires are
    # one index, as if joined through an explicit three-legged spider.
    rng = np.random.default_rng(9)
    u, v, w = rt(rng, "n", sr), rt(rng, "n", sr), rt(rng, "n.r s", sr)
    hyper = evaluate(TensorNetwork(
        [u, v, w], [((0, 0), (1, 0)), ((0, 0), (2, 0))], [(2, 1)]))
    spider = coordinator_tensor(parse_type("n"), SP, sr)
    explicit = evaluate(TensorNetwork(
        [u, v, w, spider],
        [((0, 0), (3, 0)), ((1, 0), (3, 1)), ((2, 0), (3, 2))], [(2, 1)]))
    assert hyper.isclose(explicit)
    uv = sr.mul(u.array, v.array)
    assert sr.allclose(hyper.array,
                       sr.sum(sr.mul(uv[:, None], w.array), axis=0))


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_open_wire_in_an_edge_keeps_its_index(sr):
    rng = np.random.default_rng(10)
    u, v = rt(rng, "n", sr), rt(rng, "n", sr)
    merged = evaluate(TensorNetwork([u, v], [((0, 0), (1, 0))], [(0, 0)]))
    assert sr.allclose(merged.array, sr.mul(u.array, v.array))
    # Two open wires of one class carry copies of the same index.
    copied = evaluate(TensorNetwork([u, v], [((0, 0), (1, 0))],
                                    [(0, 0), (1, 0)]))
    want = np.zeros((2, 2), dtype=sr.dtype)
    np.fill_diagonal(want, sr.mul(u.array, v.array))
    assert sr.allclose(copied.array, want)


def _ditransitive_at_eight(monkeypatch, sr, mode):
    # The dense coordinator for n.r s n.l n.l at n = s = 8 would have
    # 8**12 = 6.9e10 cells; building it at all fails here at once.
    _refuse_dense_coordinator(monkeypatch)
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


def hyperedge_loops(arrays, edges, open_wires):
    """Brute-force sum over one index per class of edge-joined wires."""
    parent = {(n, w): (n, w) for n, a in enumerate(arrays)
              for w in range(a.ndim)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(b)] = find(a)
    classes = sorted({find(x) for x in parent})
    dims = [arrays[n].shape[w] for n, w in classes]
    out = np.zeros([arrays[n].shape[w] for n, w in open_wires])
    for assignment in np.ndindex(*dims):
        value = dict(zip(classes, assignment))
        term = 1.0
        for n, a in enumerate(arrays):
            term *= float(a[tuple(value[find((n, w))]
                                  for w in range(a.ndim))])
        out[tuple(value[find(x)] for x in open_wires)] += term
    return out


@pytest.mark.parametrize("sr", [REAL, BOOLEAN], ids=["real", "bool"])
def test_random_hyperedge_networks_against_loops(sr):
    # Random classes of wires spread over up to four nodes, joined by
    # random spanning edges: self-loops, wires in several edges, wires in
    # no edge and open wires repeated or shared with edges all occur.
    rng = np.random.default_rng(12)
    for _ in range(150):
        class_dims = rng.integers(1, 4, size=rng.integers(1, 6))
        nodes, members = [], {}
        for n in range(rng.integers(1, 5)):
            cls = rng.integers(0, len(class_dims), size=rng.integers(0, 4))
            for w, c in enumerate(cls):
                members.setdefault(c, []).append((n, w))
            nodes.append(random_tensor(
                [Wire("n", 0, int(class_dims[c])) for c in cls], rng, sr))
        edges = [(wires[int(rng.integers(0, k))], wires[k])
                 for wires in members.values() for k in range(1, len(wires))]
        edges = [edges[k] for k in rng.permutation(len(edges))]
        every = [x for wires in members.values() for x in wires]
        open_wires = [every[k] for k in
                      rng.integers(0, len(every), size=rng.integers(0, 4))] \
            if every else []
        got = evaluate(TensorNetwork(nodes, edges, open_wires))
        want = hyperedge_loops([t.array for t in nodes], edges, open_wires)
        assert sr.allclose(got.array, want if sr is REAL else want > 0)

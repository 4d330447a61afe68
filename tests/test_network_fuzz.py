"""A fuzz of the network layer, in process: :class:`TensorNetwork`,
:func:`build_network`, :meth:`NetworkProgram.bind` and :func:`evaluate`
fed well-typed but invalid inputs.

The inputs have the right Python types (tensors or None, label lists,
``(node, wire)`` pairs, a :class:`SpaceAssignment`, a carrier, a mode)
and wrong contents: tensor lists that are too short or too long, tensors
of the other carrier, tensors on the wrong wires or dimensions, None at
a word token, label counts that differ from node orders, labels that join
unequal dimensions, open wires outside the network and unknown modes.
Only a ``FrobcoordError`` may escape, and no ``RuntimeWarning``.  A call
that succeeds must type its result as the network fixed it: a hand-built
network by the node wires of its open wires, a network of a derivation by
the wires of its residual type, in both modes.  Dimensions stay at 1 to
3, so every array stays small.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from frobcoord import evaluator
from frobcoord.errors import FrobcoordError
from frobcoord.evaluator import (SpaceAssignment, TensorNetwork,
                                 build_network, evaluate)
from frobcoord.pregroup import parse_type, reduce
from frobcoord.semiring import BOOLEAN, REAL
from frobcoord.tensor import Wire, random_tensor

CARRIERS = (REAL, BOOLEAN)
VP_AND = "s.r n.r.r n.r s s.l n"
N_AND = "n.r n n.l"
# (token types, target, coordinator positions) of rows that reduce.
ROWS = [(["n", "n.r s"], "s", []),
        (["n", "n.r s", VP_AND, "n.r s"], "s", [2]),
        (["n", N_AND, "n", "n.r s n.l", "n"], "s", [1]),
        ([VP_AND], VP_AND, [0]),
        (["n.r s", VP_AND], "n.r s s.l n", [1]),
        (["n", "n.r s n.l", "n"], "s", [])]
# Types of the tensors a mutation may put in a word's place.
STRAY_TYPES = ["n", "s", "n.r s", "n.l", "n.r s n.l"]


def derivations():
    for types, target, coordinators in ROWS:
        row = [parse_type(t) for t in types]
        derivation = reduce(row, parse_type(target),
                            coordinators=coordinators)
        assert derivation is not None, types
        yield derivation, coordinators


DERIVATIONS = list(derivations())


def draw_tensor(draw, wires, sr):
    seed = draw(st.integers(0, 2 ** 16))
    return random_tensor(wires, np.random.default_rng(seed), sr)


@st.composite
def rows(draw):
    """(derivation, coordinator positions, tensors, spaces, carrier,
    mode): a well-formed row with at most two faults."""
    derivation, coordinators = draw(st.sampled_from(DERIVATIONS))
    sr = draw(st.sampled_from(CARRIERS))
    other = BOOLEAN if sr is REAL else REAL
    good = spaces = SpaceAssignment({"n": 2, "s": 3})
    tensors = [None if k in coordinators
               else draw_tensor(draw, good.wires(t), sr)
               for k, t in enumerate(derivation.token_types)]
    carrier = draw(st.sampled_from([None, sr]))
    mode = draw(st.sampled_from(evaluator.MODES))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["drop", "extra", "carrier", "stray",
                                     "none", "spaces", "mode"]))
        k = draw(st.integers(0, max(len(tensors) - 1, 0)))
        stray = draw_tensor(draw, good.wires(parse_type(
            draw(st.sampled_from(STRAY_TYPES)))), sr)
        if kind == "drop" and tensors:
            del tensors[k]
        elif kind == "extra":
            tensors.insert(k, draw(st.sampled_from([None, stray])))
        elif kind == "carrier":
            if not tensors or tensors[k] is None:
                carrier = other
            else:
                tensors[k] = draw_tensor(draw, tensors[k].wires, other)
        elif kind == "stray" and tensors:  # at a word or a coordinator
            tensors[k] = stray
        elif kind == "none" and tensors:
            tensors[k] = None
        elif kind == "spaces":
            spaces = draw(st.sampled_from([
                SpaceAssignment({"n": 2, "s": 2}),
                SpaceAssignment({"n": 3, "s": 3}),
                SpaceAssignment({"n": 2})]))
        elif kind == "mode":
            mode = "dense"
    return derivation, coordinators, tensors, spaces, carrier, mode


@st.composite
def networks(draw):
    """(nodes, indices, open wires) of a small hand-built network, with at
    most two faults."""
    labels = draw(st.integers(1, 5))
    dims = [draw(st.integers(1, 3)) for _ in range(labels)]
    sr = draw(st.sampled_from(CARRIERS))
    indices = draw(st.lists(st.lists(st.integers(0, labels - 1),
                                     max_size=3), min_size=1, max_size=4))
    wires = [[Wire("n", 0, dims[l]) for l in labs] for labs in indices]
    places = [(n, w) for n, labs in enumerate(indices)
              for w in range(len(labs))]
    open_wires = draw(st.lists(st.sampled_from(places), max_size=3)) \
        if places else []
    carriers = [sr] * len(indices)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["dim", "label", "open", "carrier"]))
        if kind == "dim" and places:
            n, w = draw(st.sampled_from(places))
            wires[n][w] = Wire("n", 0, wires[n][w].dim + 1)
        elif kind == "label" and any(indices):
            indices[draw(st.sampled_from([
                n for n, labs in enumerate(indices) if labs]))].pop()
        elif kind == "open":
            open_wires.append((draw(st.integers(-1, len(indices))),
                               draw(st.integers(-1, 3))))
        elif kind == "carrier" and indices:
            n = draw(st.integers(0, len(indices) - 1))
            carriers[n] = BOOLEAN if sr is REAL else REAL
    nodes = [draw_tensor(draw, w, c) for w, c in zip(wires, carriers)]
    return nodes, indices, open_wires


def contained(call):
    """``call()``, or None when it raises a FrobcoordError; a
    RuntimeWarning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except FrobcoordError:
            return None


@given(rows(), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rows_fail_only_with_frobcoord_errors(case, through_program):
    derivation, coordinators, tensors, spaces, sr, mode = case
    if through_program:
        if sr is None or mode not in evaluator.MODES:
            return  # the program takes what build_network has checked
        net = contained(lambda: evaluator.compile_network(
            derivation, frozenset(coordinators), mode, spaces, sr).bind(
                tensors))
    else:
        net = contained(lambda: build_network(derivation, tensors, spaces,
                                              sr, mode))
    if net is None:
        return
    got = contained(lambda: evaluate(net))
    assert net.result_wires == spaces.wires(derivation.residual_type())
    if got is not None:
        assert got.wires == net.result_wires
        assert got.semiring is net.semiring
        assert got.array.shape == tuple([w.dim for w in got.wires])


@given(networks())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_networks_fail_only_with_frobcoord_errors(case):
    nodes, indices, open_wires = case
    net = contained(lambda: TensorNetwork(nodes, indices, open_wires))
    if net is None:
        return
    assert net.result_wires == tuple([nodes[n].wires[w]
                                      for n, w in open_wires])
    assert all(t.semiring is net.semiring for t in nodes)
    got = contained(lambda: evaluate(net))
    if got is not None:
        assert got.wires == net.result_wires
        assert got.array.shape == tuple([w.dim for w in got.wires])


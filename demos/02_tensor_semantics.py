"""From a derivation to a meaning: tensors, wires and contraction.

Run with:  python3 demos/02_tensor_semantics.py
"""

import numpy as np

from frobcoord import (SpaceAssignment, Tensor, TensorNetwork, Wire,
                       build_network, contract, evaluate, parse_type, reduce,
                       tensor_product)

# Pick dimensions for the noun and sentence spaces.
spaces = SpaceAssignment({"n": 2, "s": 3})

# A word meaning is a tensor with one wire per simple type.  A noun is a
# vector; an intransitive verb, typed n.r s, is a matrix.
john = Tensor(spaces.wires(parse_type("n")), [1.0, 0.5])
sleep = Tensor(spaces.wires(parse_type("n.r s")),
               [[0.1, 0.2, 0.3],
                [0.4, 0.5, 0.6]])
print("john:", john)
print("sleep:", sleep)

# The cup that witnesses n . n.r <= 1 becomes an index contraction, so
# 'john sleeps' is just a matrix-vector product.
both = tensor_product(john, sleep)
meaning = contract(both, 0, 1, typed=True)
print("\njohn sleeps =", meaning.array)
assert np.allclose(meaning.array, john.array @ sleep.array)

# The evaluator automates this: every wire of the network gets an integer
# label, the two ends of a link share one, and the residual becomes the open
# wires of the result.
tokens = [parse_type("n"), parse_type("n.r s")]
derivation = reduce(tokens, parse_type("s"))
network = build_network(derivation, [john, sleep], spaces)
print("network indices:", network.indices, "open:", network.open_wires)
print("evaluated:    ", evaluate(network).array)

# The result never depends on how the labels are numbered, which also
# decides the contraction order; with a transitive verb there are two cups
# and either may go first.  A network is an immutable value that carries
# its plan, so the relabelled one is a new network, planned anew.
likes = Tensor(spaces.wires(parse_type("n.r s n.l")),
               np.arange(12, dtype=float).reshape(2, 3, 2) / 10)
musicals = Tensor(spaces.wires(parse_type("n")), [0.0, 1.0])
tokens = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
derivation = reduce(tokens, parse_type("s"))
net = build_network(derivation, [john, likes, musicals], spaces)
forward = evaluate(net)
top = max(max(labs) for labs in net.indices)
reversed_net = TensorNetwork(
    net.nodes, [[top - l for l in labs] for labs in net.indices],
    net.open_wires)
order = [(step.a, step.b) for step in net.plan.steps]
reversed_order = [(step.a, step.b) for step in reversed_net.plan.steps]
print("step order:", order, "relabelled:", reversed_order)
assert reversed_order != order
backward = evaluate(reversed_net)
assert forward.isclose(backward)
print("\njohn likes musicals =", forward.array, "(label-order independent)")

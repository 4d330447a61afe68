"""Print SHA-256 digests of the networks, plans and results frobcoord makes.

Two trees that print equal digests build the same networks, look up the
same contraction plans and compute the same bytes, on a fixed set of
inputs: every eval operation of the four benchmark workloads at seeds 1
and 2, in both modes; verb-phrase chains of 12, 60 and 240 conjuncts on
both carriers, in both modes; the suite totals of a small fixed
``run_selftest``, also with the fault injected; seeded calls of every
tensor primitive; and the plans of seeded random hyperedge networks.
Everything runs in one process and nothing is timed, so the digests
depend on what the code computes alone.

Run from the repository root::

    python tools/fingerprint.py              # this checkout's src
    python tools/fingerprint.py other/src    # frobcoord from another tree

The output is one JSON line.  ``networks`` and ``plans`` cover the
program each sentence replays, as the network ``build_network`` binds
from it: its labels and open wires, each node's source by its wires and
bytes (a word's tensor, a copy spider or an all-ones vector), and the
``ContractionPlan`` it carries.  ``results`` covers every sentence's
result wires and bytes, or its error class and message, and
``selftest`` the suite totals, with and without the injected fault.
``primitives`` covers the result wires and bytes, or the error class and
message, of every operation of ``tensor`` and of ``coordinator_tensor``
for the selftest's conjunct types, on both carriers, at small
dimensions, including inputs each one refuses.  ``random_plans`` covers
the uncached ``plan_contraction`` (every field of the plan, or the
refusal's class and message) of the networks :func:`random_networks`
draws.  Each pass (the sentences, the selftest, the primitives) starts
with the program and plan caches empty.  Labels and open wires are
digested as lists of lists and of pairs, whether a tree keeps them as
lists or as tuples.
``bench/workloads.py`` is imported and only read.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
CHAIN_LENGTHS = (12, 60, 240)
SELFTEST = {"dims": (1, 2), "trials": 4, "seed": 0}
PRIMITIVE_DIMS = (1, 2, 3)
COORDINATOR_SPACES = ({"n": 1, "s": 2}, {"n": 2, "s": 3})
RANDOM_PLANS = 3000


def _array(arr) -> bytes:
    return f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()


def _chain_lexicon(carrier: str, k: int):
    """A verb-phrase chain "john v0 and v1 and ..." of ``k`` conjuncts over
    ``carrier``, with three verbs, as lexicon text and words."""
    text = (f"#semiring {carrier}\n#type n 2\n#type s 2\n"
            "john : n = @random(1)\n"
            + "".join(f"v{i} : n.r s = @random({i + 2})\n" for i in range(3))
            + "and : s.r n.r.r n.r s s.l n = @conj\n")
    words = ["john", "v0"] + [w for i in range(1, k)
                              for w in ("and", f"v{i % 3}")]
    return text, words


def _sentences():
    """``(lexicon text, words)`` of every input sentence, in a fixed order."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    for make in workloads.WORKLOADS.values():
        for seed in SEEDS:
            workload = make(seed)
            for op in workload.ops:
                if op.command == "eval":
                    yield workload.lexicon_text, op.words
    for carrier in ("real", "bool"):
        for k in CHAIN_LENGTHS:
            yield _chain_lexicon(carrier, k)


def random_networks(count: int, seed: int = 0):
    """``count`` seeded ``(indices, shapes, open_wires)`` planner keys.

    Each network has 1-14 nodes of 0-4 wires and label dims 1-4.  Most
    labels join a few wires; in three networks of five one or two labels
    also go on up to 14 nodes, past ``_PAIRED_HOLDERS`` (so they fold in
    as stars) when the network has 9 nodes or more.  Open wires are drawn
    with repeats.  One key in ten is malformed: a wire with the wrong
    dimension, a node missing a label, or an open wire outside the
    network.
    """
    rng = random.Random(seed)
    for _ in range(count):
        nodes = rng.randint(1, 14)
        labels = rng.randint(1, 2 * nodes + 1)
        dims = [rng.randint(1, 4) for _ in range(labels)]
        indices = [[rng.randrange(labels) for _ in range(rng.randint(0, 4))]
                   for _ in range(nodes)]
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 2)):
                edge, holders = rng.randrange(labels), rng.randint(9, 14)
                for n in rng.sample(range(nodes), min(holders, nodes)):
                    indices[n].insert(rng.randint(0, len(indices[n])), edge)
        shapes = [[dims[l] for l in labs] for labs in indices]
        wires = [(n, w) for n, labs in enumerate(indices)
                 for w in range(len(labs))]
        open_wires = [rng.choice(wires) for _ in range(rng.randint(0, 4))
                      if wires]
        fault = rng.randrange(30)
        if fault == 0 and wires:
            n, w = rng.choice(wires)
            shapes[n][w] += 1
        elif fault == 1 and wires:
            indices[rng.choice(wires)[0]].pop()
        elif fault == 2:
            open_wires.append((rng.randint(0, nodes), rng.randint(0, 5)))
        yield (tuple(map(tuple, indices)), tuple(map(tuple, shapes)),
               tuple(open_wires))


def _outcome(frobcoord, call, *args) -> bytes:
    """The result of ``call(*args)``: its wires and bytes, a scalar's
    repr, or the error class and message."""
    try:
        got = call(*args)
    except frobcoord.errors.FrobcoordError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    if isinstance(got, frobcoord.tensor.Tensor):
        return repr(got.wires).encode() + _array(got.array)
    return repr(got).encode()


def _selftest(frobcoord, h) -> None:
    """Digest the suite totals of a small fixed ``run_selftest``, with each
    counterexample, and the totals of the same run with the fault injected:
    a suite that stops catching the negative control changes them."""
    for suite in frobcoord.selftest.run_selftest(**SELFTEST):
        h.update(repr((suite.name, suite.passed, suite.total,
                       suite.counterexample)).encode())
    for suite in frobcoord.selftest.run_selftest(**SELFTEST,
                                                 inject_fault=True):
        h.update(repr((suite.name, suite.passed, suite.total)).encode())


def _primitives(frobcoord, h) -> None:
    """Digest seeded calls of every primitive, including calls each one
    refuses.  Each function is looked up on its module as this runs, so
    a patched one is seen."""
    tensor, semiring = frobcoord.tensor, frobcoord.semiring
    Wire = tensor.Wire
    coordinator_types = [frobcoord.pregroup.parse_type(x)
                         for x in frobcoord.selftest._CONJUNCT_TYPES]
    for k, sr in enumerate((semiring.REAL, semiring.BOOLEAN)):
        rng = np.random.default_rng([k, 25])

        def draw(*wires):
            return tensor.random_tensor([Wire(b, z, d) for b, z, d in wires],
                                        rng, sr)

        for d in PRIMITIVE_DIMS:
            u, v = draw(("n", 0, d)), draw(("n", 0, d))
            cup = draw(("n", 1, d), ("s", 0, 2), ("n", 0, d))
            m, t = draw(("n", 0, d), ("n", 0, d)), draw(
                ("n", 0, d), ("s", 0, d + 1), ("n", -1, 2))
            perm = [int(p) for p in rng.permutation(3)]
            calls = [
                (tensor.tensor_product, u, v), (tensor.tensor_product, m, t),
                (tensor.tensor_product, cup, tensor.scalar(1, sr)),
                (tensor.contract, cup, 0, 2), (tensor.contract, cup, 2, 0,
                                               True),
                (tensor.contract, m, 0, 1), (tensor.contract, m, 0, 1, True),
                (tensor.contract, t, 0, 1), (tensor.contract, t, 1, 1),
                (tensor.contract, u, 0, 3),
                (tensor.frobenius_delta, u), (tensor.frobenius_delta, m),
                (tensor.frobenius_mu, u, v), (tensor.frobenius_mu, m, m),
                (tensor.frobenius_mu, u, m),
                (tensor.frobenius_mu_matrix, m),
                (tensor.frobenius_mu_matrix, u),
                (tensor.frobenius_mu_matrix, draw(("n", 0, d),
                                                  ("s", 0, d + 1))),
                (tensor.frobenius_iota, u), (tensor.frobenius_iota, m),
                (tensor.permute_wires, t, perm),
                (tensor.permute_wires, m, (1, 0)),
                (tensor.permute_wires, t, (0, 0, 1)),
                (tensor.eta_cap, "n", "right", d, 0, sr),
                (tensor.eta_cap, "s", "left", d, 2, sr),
                (tensor.eta_cap, "n", "up", d, 0, sr)]
            for call, *args in calls:
                h.update(_outcome(frobcoord, call, *args))
        for dims in COORDINATOR_SPACES:
            spaces = frobcoord.evaluator.SpaceAssignment(dims)
            for x in coordinator_types:
                h.update(_outcome(frobcoord,
                                  frobcoord.coordination.coordinator_tensor,
                                  x, spaces, sr))


def _cold(frobcoord) -> None:
    """Empty the program and plan caches, so that a pass compiles what it
    replays whatever ran before it in this process."""
    frobcoord.evaluator.compile_network.cache_clear()
    frobcoord.evaluator.plan_contraction.cache_clear()


def fingerprint(frobcoord) -> dict:
    """The digests of one ``frobcoord`` package, imported by the caller."""
    evaluator = frobcoord.evaluator
    digests = {part: hashlib.sha256()
               for part in ("networks", "plans", "results", "selftest",
                            "primitives", "random_plans")}
    build_network = evaluator.build_network

    def built(*args, **kwargs):
        net = build_network(*args, **kwargs)
        h = digests["networks"]
        h.update(repr(([list(labs) for labs in net.indices],
                       [tuple(w) for w in net.open_wires])).encode())
        for node in net.nodes:
            h.update(repr(node.wires).encode() + _array(node.array))
        digests["plans"].update(repr(net.plan).encode())
        return net

    evaluator.build_network = built
    try:
        _cold(frobcoord)
        lexicons = {}
        for text, words in _sentences():
            if text not in lexicons:
                lexicons[text] = frobcoord.lexicon.parse_lexicon(text)
            for mode in evaluator.MODES:
                digests["results"].update(_outcome(
                    frobcoord, evaluator.evaluate_sentence, words,
                    lexicons[text], "s", mode))
    finally:
        evaluator.build_network = build_network
    _cold(frobcoord)
    _selftest(frobcoord, digests["selftest"])
    _cold(frobcoord)
    _primitives(frobcoord, digests["primitives"])
    for key in random_networks(RANDOM_PLANS):
        digests["random_plans"].update(_outcome(
            frobcoord, evaluator.plan_contraction.__wrapped__, *key))
    return {part: h.hexdigest() for part, h in digests.items()}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]).resolve() if args else ROOT / "src"
    sys.path.insert(0, str(src))
    import frobcoord
    if Path(frobcoord.__file__).resolve().parent != src / "frobcoord":
        sys.exit(f"fingerprint: frobcoord was imported from "
                 f"{frobcoord.__file__}, not from {src}")
    print(json.dumps(fingerprint(frobcoord)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

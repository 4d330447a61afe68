"""Print SHA-256 digests of the networks, plans and results frobcoord makes.

Two trees that print equal digests build the same networks, look up the
same contraction plans and compute the same bytes, on a fixed set of
inputs: every eval operation of the four benchmark workloads at seeds 1
and 2, in both modes; verb-phrase chains of 12, 60 and 240 conjuncts on
both carriers, in both modes; and the suite totals of a small fixed
``run_selftest``.  Everything runs in one process and nothing is timed,
so the digests depend on what the code computes alone.

Run from the repository root::

    python tools/fingerprint.py              # this checkout's src
    python tools/fingerprint.py other/src    # frobcoord from another tree

The output is one JSON line: ``networks`` covers every network that
``build_network`` makes (labels, open wires, node wires and node bytes),
``plans`` every ``ContractionPlan`` that ``evaluate`` looks up,
``results`` every sentence's result wires and bytes, or its error class
and message, and ``selftest`` the suite totals.  ``bench/workloads.py``
is imported and only read.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
CHAIN_LENGTHS = (12, 60, 240)
SELFTEST = {"dims": (1, 2), "trials": 4, "seed": 0}


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


def fingerprint(frobcoord) -> dict:
    """The digests of one ``frobcoord`` package, imported by the caller."""
    evaluator = frobcoord.evaluator
    digests = {part: hashlib.sha256()
               for part in ("networks", "plans", "results", "selftest")}
    build_network, plan_contraction = (evaluator.build_network,
                                       evaluator.plan_contraction)

    def built(*args, **kwargs):
        net = build_network(*args, **kwargs)
        h = digests["networks"]
        h.update(repr((net.indices, net.open_wires)).encode())
        for node in net.nodes:
            h.update(repr(node.wires).encode() + _array(node.array))
        return net

    def planned(*key):
        plan = plan_contraction(*key)
        digests["plans"].update(repr(plan).encode())
        return plan

    evaluator.build_network, evaluator.plan_contraction = built, planned
    try:
        lexicons = {}
        for text, words in _sentences():
            if text not in lexicons:
                lexicons[text] = frobcoord.lexicon.parse_lexicon(text)
            for mode in evaluator.MODES:
                try:
                    got = evaluator.evaluate_sentence(words, lexicons[text],
                                                      "s", mode=mode)
                    out = repr(got.wires).encode() + _array(got.array)
                except frobcoord.errors.FrobcoordError as exc:
                    out = f"{type(exc).__name__}: {exc}".encode()
                digests["results"].update(out)
    finally:
        evaluator.build_network = build_network
        evaluator.plan_contraction = plan_contraction
    for suite in frobcoord.selftest.run_selftest(**SELFTEST):
        digests["selftest"].update(repr(
            (suite.name, suite.passed, suite.total,
             suite.counterexample)).encode())
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

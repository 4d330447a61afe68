"""Command-line front end.

Commands: ``check`` (grammaticality + link listing, ``--ascii-diagram``
adds a cup diagram), ``derive`` (``check --ascii-diagram`` with a blank
line between derivations), ``eval`` (meaning tensor, explicit or
closed-form mode, optional mode comparison), ``selftest`` (the randomized
verification suites).  Exit codes: 0 success, 1 semantic failure
(ungrammatical input or a failing suite), 2 environmental failure (I/O,
lexicon or lookup errors, a real result past float64, memory); only
:func:`main` maps errors to them.

A command imports only what it runs.  ``check`` and ``derive`` need types
alone and never import numpy; ``eval`` imports ``evaluator`` (and with it
numpy) when it runs, and ``selftest`` imports ``selftest``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import FrobcoordError, UngrammaticalSentence
from .lexicon import load_lexicon
from .pregroup import enumerate_reductions, parse_type, reduce
from .spaces import MODES


def __getattr__(name):
    """``evaluate_sentence``, which ``eval`` imports from ``evaluator``
    when it runs (PEP 562).  ``eval`` reads it from ``evaluator`` at that
    moment, so a replacement put there, or there and here alike, wraps
    each call once."""
    if name != "evaluate_sentence":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .evaluator import evaluate_sentence
    return evaluate_sentence


def _format_links(derivation) -> str:
    parts = []
    for (i, j) in sorted(derivation.links):
        (ta, wa), (tb, wb) = derivation.token_wire(i), derivation.token_wire(j)
        parts.append(f"({ta}.{wa}–{tb}.{wb})")
    return " ".join(parts) if parts else "(no links)"


def _diagram(words, derivation) -> str:
    """Tokens above their simple types, cups as nested brackets below."""
    centers, word_cells, type_cells = [], [], []
    col = 0
    flat = derivation.flattened
    for tok, ptype in enumerate(derivation.token_types):
        labels = [str(s) for s in ptype]
        body = " ".join(labels)
        width = max(len(words[tok]), len(body))
        word_cells.append(words[tok].ljust(width))
        type_cells.append(body.ljust(width))
        off = col
        for lab in labels:
            centers.append(off + (len(lab) - 1) // 2)
            off += len(lab) + 1
        col += width + 2
    lines = ["  ".join(word_cells).rstrip(), "  ".join(type_cells).rstrip()]
    total = len(lines[1])

    links = sorted(derivation.links, key=lambda ij: ij[1] - ij[0])
    height = {}
    for (i, j) in links:
        inner = [height[(k, l)] for (k, l) in links if i < k and l < j]
        height[(i, j)] = 1 + max(inner) if inner else 0
    for level in range(len(links) and max(height.values()) + 1):
        row = [" "] * total
        for r in derivation.residual:
            row[centers[r]] = "│"
        for (i, j), h in height.items():
            if h > level:
                row[centers[i]] = row[centers[j]] = "│"
        for (i, j), h in height.items():
            if h == level:
                row[centers[i]], row[centers[j]] = "└", "┘"
                for c in range(centers[i] + 1, centers[j]):
                    row[c] = "─"
        lines.append("".join(row).rstrip())
    if derivation.residual:
        row = [" "] * total
        for r in derivation.residual:
            lab = str(flat[r])
            row[centers[r]:centers[r] + len(lab)] = lab
        lines.append("".join(row).rstrip())
    return "\n".join(lines)


def cmd_check(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    row = lexicon.row(args.words)
    types = [entry.type for entry in row]
    coordinators = [k for k, entry in enumerate(row) if entry.is_coordinator]
    target = parse_type(args.target, lexicon.spaces.bases())
    if args.all:
        derivations = enumerate_reductions(types, target, args.cap,
                                           coordinators=coordinators)
    else:
        derivation = reduce(types, target, coordinators=coordinators)
        derivations = [] if derivation is None else [derivation]
    if not derivations:
        print("ungrammatical")
        return 1
    for k, derivation in enumerate(derivations):
        if k and args.command == "derive":
            print()
        print(_format_links(derivation))
        if args.ascii_diagram:
            print(_diagram(args.words, derivation))
    return 0


def _print_tensor(tensor, fmt):
    entries = [tensor.semiring.to_python(v) for v in tensor.flat]
    if fmt == "json":
        print(json.dumps({
            "semiring": tensor.semiring.name,
            "wires": [{"base": w.base, "z": w.z, "dim": w.dim}
                      for w in tensor.wires],
            "entries": entries,
        }))
    else:
        print(" ".join(format(v, ".12g") for v in entries))


def cmd_eval(args) -> int:
    from .evaluator import evaluate_sentence

    lexicon = load_lexicon(args.lexicon)
    if args.compare:
        explicit, closed = [evaluate_sentence(args.words, lexicon,
                                              args.target, mode=mode)
                            for mode in MODES]
        diff = explicit.semiring.distance(explicit.array, closed.array)
        if args.format == "json":
            print(json.dumps({"max_abs_diff": diff}))
        else:
            print(f"max-abs-diff {diff:.6g}")
        return 0
    _print_tensor(evaluate_sentence(args.words, lexicon, args.target,
                                    mode=args.mode), args.format)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    as_json = args.format == "json"
    if not as_json:
        print(f"selftest: seed={args.seed}")
    results = run_selftest(dims=args.dims, trials=args.trials, seed=args.seed,
                           inject_fault=args.inject_fault)
    ok = all(res.ok for res in results)
    if as_json:
        print(json.dumps({"seed": args.seed, "ok": ok, "suites": [
            {"name": res.name, "passed": res.passed, "total": res.total,
             "seconds": res.seconds, "counterexample": res.counterexample}
            for res in results]}))
        return 0 if ok else 1
    for res in results:
        print(f"{res.name}: {res.passed}/{res.total} pass "
              f"({res.seconds:.3f} s)")
        if not res.ok:
            print(f"counterexample[{res.name}]: seed={args.seed} "
                  f"{res.counterexample}")
    print("selftest: OK" if ok else "selftest: FAILED")
    return 0 if ok else 1


def _int_at_least(low: int, want: str):
    """The argparse type of an integer argument of at least ``low``;
    ``want`` names the rule in the usage error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"invalid int value {text!r}: expected {want}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")


def _dims(text: str) -> tuple:
    return tuple(_positive_int(d) for d in text.split(","))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frobcoord",
        description="Pregroup grammar checking and tensor-network "
                    "semantics with coordinator tensors.")
    sub = parser.add_subparsers(dest="command", required=True)

    def sentence_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("lexicon", help="path to a lexicon file")
        p.add_argument("words", nargs="+", metavar="word")
        p.add_argument("--target", default="s",
                       help="target type (default: s)")
        p.add_argument("--all", action="store_true",
                       help="list every derivation, not just the canonical")
        p.add_argument("--cap", type=_positive_int, default=1000,
                       help="derivation cap for --all")
        p.set_defaults(func=cmd_check)
        return p

    sentence_command("check", "check grammaticality and print links"
                     ).add_argument("--ascii-diagram", action="store_true",
                                    help="draw cups as nested brackets")
    sentence_command("derive", "print derivations with cup diagrams"
                     ).set_defaults(ascii_diagram=True)

    p_eval = sub.add_parser("eval", help="evaluate a sentence meaning")
    p_eval.add_argument("lexicon")
    p_eval.add_argument("words", nargs="+", metavar="word")
    p_eval.add_argument("--target", default="s")
    p_eval.add_argument("--mode", choices=MODES, default="explicit")
    p_eval.add_argument("--compare", action="store_true",
                        help="run both modes, print the max difference "
                             "(on booleans, the count of differing entries)")
    p_eval.add_argument("--format", choices=("plain", "json"),
                        default="plain")
    p_eval.set_defaults(func=cmd_eval)

    p_self = sub.add_parser("selftest", help="run the verification suites")
    p_self.add_argument("--dims", type=_dims, default="1,2,3,4",
                        help="comma-separated positive dimensions to sample")
    p_self.add_argument("--trials", type=_positive_int, default=100)
    # A string default goes through ``type`` only when selftest runs
    # without --seed, so a malformed FROBCOORD_SEED is a usage error (exit
    # 2) for selftest alone.
    p_self.add_argument("--seed",
                        type=_int_at_least(0, "a non-negative integer"),
                        default=os.environ.get("FROBCOORD_SEED", "0"),
                        help="RNG seed, at least 0 "
                             "(default: $FROBCOORD_SEED, else 0)")
    p_self.add_argument("--format", choices=("plain", "json"),
                        default="plain",
                        help="json: one object with the seed and each suite")
    p_self.add_argument("--inject-fault", action="store_true",
                        help=argparse.SUPPRESS)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UngrammaticalSentence as exc:
        print(f"ungrammatical: {exc}", file=sys.stderr)
        return 1
    except (OSError, FrobcoordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()

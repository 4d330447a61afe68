"""The four workloads: a lexicon file plus one round of operations each.

A workload is built from its name and a seed.  The seed picks the
``@random`` seeds of the words and the words of every sentence; the make-up
of a round (dimensions, sentence forms, conjunct counts, modes, commands)
is the same for every seed, so every seed does the same amount of work.
Each operation carries the result the benchmark expects, computed by
``oracle.py`` without frobcoord.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

import oracle

TARGET = (("s", 0),)
MODES = ("explicit", "closed-form")
WORD_TYPES = {"noun": "n", "iv": "n.r s", "tv": "n.r s n.l"}


@dataclass(frozen=True)
class Op:
    """One operation: ``eval`` (a sentence in one mode) or ``check``."""

    label: str                    # the operation's class within the round
    command: str                  # "eval" or "check"
    words: tuple
    mode: str | None
    token_rows: tuple             # each word's simple types
    expected: np.ndarray | None   # eval result; None: must be ungrammatical

    @property
    def row(self):
        return [t for r in self.token_rows for t in r]


@dataclass(frozen=True)
class Workload:
    name: str
    lexicon_text: str
    ops: tuple          # one round
    setup_loads: int    # lexicon loads timed in a run; setup_s is the median
    via_cli: bool       # each op is a `python -m frobcoord` process


class _Lexicon:
    """Generates lexicon text and keeps what the oracle needs to know."""

    def __init__(self, rng, boolean, dim, counts, coordinators):
        self.types = {}
        self.words = {kind: [] for kind in counts}
        lines = [f"#semiring {'bool' if boolean else 'real'}",
                 f"#type n {dim}", f"#type s {dim}"]
        arrays = {}
        for kind, count in counts.items():
            for i in range(count):
                word, type_text = f"{kind}{i}", WORD_TYPES[kind]
                seed = rng.randrange(2 ** 63)
                shape = (dim,) * len(type_text.split())
                arrays[word] = oracle.word_array(seed, shape, boolean)
                self.types[word] = type_text
                self.words[kind].append(word)
                lines.append(f"{word} : {type_text} = @random({seed})")
        for word in coordinators:
            type_text = oracle.coordinator_type(oracle.COORDINATORS[word])
            self.types[word] = type_text
            lines.append(f"{word} : {type_text} = @conj")
        self.text = "\n".join(lines) + "\n"
        self.semantics = oracle.Semantics(arrays, boolean)

    def op(self, label, words, mode, expected, command="eval"):
        rows = tuple(tuple(oracle.simple_types(self.types[w])) for w in words)
        return Op(label, command, tuple(words), mode, rows, expected)

    def sentence_ops(self, label, clauses, modes=MODES):
        expected = self.semantics.sentence(clauses)
        words = oracle.tokens(clauses)
        return [self.op(f"{label}/{mode}", words, mode, expected)
                for mode in modes]


# vp-chains: chains per conjunct count in one round, each one grammatical
# and one ungrammatical, in both modes.  An ungrammatical chain costs about
# as much as a grammatical one two conjuncts longer; these counts put the
# 50th latency percentile inside the ungrammatical k=10 cluster and the
# 90th inside the ungrammatical k=12 one, away from cluster boundaries.
CONJUNCTS = {8: 1, 9: 1, 10: 2, 11: 1, 12: 3}


def vp_chains(seed: int) -> Workload:
    rng = random.Random(f"vp-chains:{seed}")
    lex = _Lexicon(rng, False, 2, {"noun": 4, "iv": 6}, ["and_vp"])
    ops = []
    for k in (k for k, count in CONJUNCTS.items() for _ in range(count)):
        clause = ((rng.choice(lex.words["noun"]),),
                  [(rng.choice(lex.words["iv"]),) for _ in range(k)])
        ops += lex.sentence_ops(f"k{k}/gram", [clause])
        # Dropping the final verb leaves a trailing coordinator: the search
        # has to be exhausted before the row is known to be ungrammatical.
        short = oracle.tokens([clause])[:-1]
        for mode in MODES:
            op = lex.op(f"k{k}/ungram/{mode}", short, mode, None)
            assert oracle.balance(op.row) != oracle.balance(TARGET)
            ops.append(op)
    return Workload("vp-chains", lex.text, tuple(ops), setup_loads=400,
                    via_cli=False)


# corpus-*: sentences per form in one round, each run in both modes.  With
# these counts the 50th latency percentile falls in the middle of the
# closed-form "S and S" cluster of times and the 90th in the middle of the
# explicit "S and S" one, rather than on a boundary between two clusters.
CORPUS_FORMS = {"svo": 2, "coord-subj": 2, "coord-obj": 2, "s-and-s": 4}


def _corpus(name: str, seed: int, boolean: bool) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    lex = _Lexicon(rng, boolean, 64, {"noun": 8, "tv": 2}, ["and_n", "and_s"])
    nouns, tvs = lex.words["noun"], lex.words["tv"]

    def clause(subj=None, obj=None):
        return (subj or (rng.choice(nouns),),
                [(rng.choice(tvs), obj or (rng.choice(nouns),))])
    make = {"svo": lambda: [clause()],
            "coord-subj": lambda: [clause(subj=tuple(rng.sample(nouns, 2)))],
            "coord-obj": lambda: [clause(obj=tuple(rng.sample(nouns, 2)))],
            "s-and-s": lambda: [clause(), clause()]}
    ops = []
    for form, count in CORPUS_FORMS.items():
        for _ in range(count):
            ops += lex.sentence_ops(form, make[form]())
    return Workload(name, lex.text, tuple(ops), setup_loads=12,
                    via_cli=False)


def corpus_real(seed: int) -> Workload:
    return _corpus("corpus-real", seed, boolean=False)


def corpus_bool(seed: int) -> Workload:
    return _corpus("corpus-bool", seed, boolean=True)


# cli-eval: one round, in this order.  Each eval form alternates its mode.
CLI_ROUND = ("vp", "vp-tv", "check", "vp", "s-and-s",
             "vp-tv", "vp", "check", "vp-tv", "s-and-s") * 2


def cli_eval(seed: int) -> Workload:
    rng = random.Random(f"cli-eval:{seed}")
    lex = _Lexicon(rng, False, 16, {"noun": 8, "iv": 4, "tv": 2},
                   ["and_n", "and_vp", "and_s"])
    nouns, ivs, tvs = lex.words["noun"], lex.words["iv"], lex.words["tv"]

    def n():
        return (rng.choice(nouns),)

    def iv():
        return (rng.choice(ivs),)

    def tv():
        return (rng.choice(tvs), n())
    make = {"vp": lambda: [(n(), [iv(), iv()])],
            "vp-tv": lambda: [(n(), [tv(), iv()])],
            "s-and-s": lambda: [(n(), [iv()]), (n(), [tv()])],
            "check": lambda: [(n(), [iv(), iv(), tv()])]}
    seen = {form: 0 for form in make}
    ops = []
    for form in CLI_ROUND:
        clauses = make[form]()
        if form == "check":
            ops.append(lex.op("check", oracle.tokens(clauses), None, None,
                              command="check"))
        else:
            mode = MODES[seen[form] % 2]
            ops += lex.sentence_ops(form, clauses, modes=(mode,))
        seen[form] += 1
    return Workload("cli-eval", lex.text, tuple(ops), setup_loads=40,
                    via_cli=True)


WORKLOADS = {"vp-chains": vp_chains, "corpus-real": corpus_real,
             "corpus-bool": corpus_bool, "cli-eval": cli_eval}

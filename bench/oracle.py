"""Expected results computed without frobcoord, and the checkers.

Nothing here imports frobcoord.  Word tensors are re-derived from the
lexicon's ``@random(seed)`` specs with a vectorised splitmix64, sentence
meanings are computed with numpy from the sentence's phrase structure,
ungrammaticality is proved with the per-base balance invariant, and the
links printed by ``frobcoord check`` are validated directly against the
definition of a pregroup reduction.

Sentence structure, shared with ``workloads.py``::

    NP       tuple of nouns, coordinated with ``and_n`` when longer than 1
    VP       (iv,) or (tv, NP)
    clause   (NP, [VP, ...]), the VPs coordinated with ``and_vp``
    sentence [clause, ...], the clauses coordinated with ``and_s``
"""

from __future__ import annotations

import json
import re
from collections import Counter
from functools import reduce

import numpy as np

# Relative tolerance for real results: |got - expected| must stay within
# REAL_RTOL times the largest |expected| entry of the same result.
REAL_RTOL = 1e-9

COORDINATORS = {"and_n": "n", "and_vp": "n.r s", "and_s": "s"}

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix_units(seed: int, size: int) -> np.ndarray:
    """The first ``size`` floats in [0, 1) of the splitmix64 stream ``seed``.

    The stream adds the golden-ratio constant to the state before each
    draw, so draw i (from 1) mixes ``seed + i * golden`` modulo 2**64.
    """
    steps = np.arange(1, size + 1, dtype=np.uint64)
    z = np.uint64(seed) + steps * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def word_array(seed: int, shape, boolean: bool) -> np.ndarray:
    """The tensor that ``@random(seed)`` denotes, row-major over ``shape``."""
    units = splitmix_units(seed, int(np.prod(shape))).reshape(shape)
    return units >= 0.5 if boolean else units


def simple_types(text: str):
    """``"n.r s n.l"`` -> ``[("n", 1), ("s", 0), ("n", -1)]``."""
    out = []
    for token in text.split():
        base, *marks = token.split(".")
        out.append((base, marks.count("r") - marks.count("l")))
    return out


def coordinator_type(conjunct: str) -> str:
    """``x.r x x.l`` written out for a conjunct type ``x``."""
    x = simple_types(conjunct)

    def show(base, z):
        return base + (".r" * z if z > 0 else ".l" * -z)
    right = [show(b, z + 1) for b, z in reversed(x)]
    left = [show(b, z - 1) for b, z in reversed(x)]
    return " ".join(right + [show(b, z) for b, z in x] + left)


# -- meanings -------------------------------------------------------------

class Semantics:
    """Evaluates sentence structures over word arrays with numpy.

    Over booleans every intermediate is a set (a 0/1 vector) or a relation
    (a 0/1 matrix): merging is intersection, applying a verb is relational
    composition, and both are re-thresholded after each step.
    """

    def __init__(self, arrays: dict, boolean: bool):
        self.arrays = {w: a.astype(np.int64) if boolean else a
                       for w, a in arrays.items()}
        self.boolean = boolean

    def _norm(self, x):
        return (x > 0).astype(np.int64) if self.boolean else x

    def _merge(self, xs):
        return self._norm(reduce(np.multiply, xs))

    def noun_phrase(self, nouns):
        return self._merge([self.arrays[w] for w in nouns])

    def verb_phrase(self, vp):
        """The VP as a matrix from the subject space to the sentence space."""
        if len(vp) == 1:
            return self.arrays[vp[0]]
        tv, obj = vp
        return self._norm(np.einsum("isj,j->is", self.arrays[tv],
                                    self.noun_phrase(obj)))

    def clause(self, clause):
        """sum_i subj[i] * prod_k vp_k[i, :]."""
        subj, vps = clause
        return self._norm(self.noun_phrase(subj)
                          @ self._merge([self.verb_phrase(v) for v in vps]))

    def sentence(self, clauses):
        out = self._merge([self.clause(c) for c in clauses])
        return out.astype(bool) if self.boolean else out


def tokens(clauses) -> list:
    """The word row of a sentence structure."""
    def np_(nouns):
        return " and_n ".join(nouns).split()
    words = []
    for c, (subj, vps) in enumerate(clauses):
        if c:
            words.append("and_s")
        words += np_(subj)
        for v, vp in enumerate(vps):
            if v:
                words.append("and_vp")
            words.append(vp[0])
            if len(vp) == 2:
                words += np_(vp[1])
    return words


# -- checkers ---------------------------------------------------------------
# Each returns None when the result is right and a one-line reason when not.

def compare(got, expected: np.ndarray) -> str | None:
    got = np.asarray(got)
    if got.shape != expected.shape:
        return f"shape {got.shape} != expected {expected.shape}"
    if expected.dtype == bool:
        bad = int(np.count_nonzero(got.astype(bool) != expected))
        return f"{bad} boolean entries differ" if bad else None
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    err = float(np.max(np.abs(got - expected))) if expected.size else 0.0
    if not err <= REAL_RTOL * scale:
        return f"max abs error {err:.3g} exceeds {REAL_RTOL:g} x {scale:.3g}"
    return None


def balance(row) -> dict:
    """#even - #odd adjoint orders per base; every link preserves it."""
    out = Counter()
    for base, z in row:
        out[base] += 1 if z % 2 == 0 else -1
    return {b: v for b, v in out.items() if v}


def check_ungrammatical(row, target, raised: bool) -> str | None:
    """The program said "ungrammatical" (``raised``) and the invariant
    proves that no reduction of ``row`` to ``target`` exists."""
    if not raised:
        return "expected UngrammaticalSentence, got a result"
    if balance(row) == balance(target):
        return "balance invariant does not prove the row ungrammatical"
    return None


def check_links(row, target, links) -> str | None:
    """``links`` (flat index pairs) form a reduction of ``row`` to ``target``:
    adjoint-paired, disjoint, non-crossing, trapping no surviving wire, and
    leaving exactly ``target``."""
    links = sorted(links)
    used = set()
    for i, j in links:
        if not 0 <= i < j < len(row):
            return f"link ({i}, {j}) is out of range"
        if i in used or j in used:
            return f"link ({i}, {j}) reuses a wire"
        used.update((i, j))
        (bi, zi), (bj, zj) = row[i], row[j]
        if bi != bj or zj != zi + 1:
            return f"link ({i}, {j}) pairs {row[i]} with {row[j]}"
    for i, j in links:
        for k, l in links:
            if i < k < j < l:
                return f"links ({i}, {j}) and ({k}, {l}) cross"
    residual = [p for p in range(len(row)) if p not in used]
    if [row[p] for p in residual] != list(target):
        return f"residual {[row[p] for p in residual]} != target {target}"
    for p in residual:
        if any(i < p < j for i, j in links):
            return f"surviving wire {p} is trapped under a link"
    return None


_LINK = re.compile(r"\((\d+)\.(\d+)–(\d+)\.(\d+)\)")


def parse_check_output(text: str, token_rows) -> list | None:
    """Flat link pairs from the first line ``check`` prints, or None when a
    link names a token or wire that the row does not have."""
    lines = text.splitlines()
    if not lines:
        return None
    offsets = np.cumsum([0] + [len(r) for r in token_rows])

    def flat(token, wire):
        token, wire = int(token), int(wire)
        if token >= len(token_rows) or wire >= len(token_rows[token]):
            raise IndexError
        return int(offsets[token]) + wire
    try:
        return [(flat(ta, wa), flat(tb, wb))
                for ta, wa, tb, wb in _LINK.findall(lines[0])]
    except IndexError:
        return None


def parse_eval_json(text: str) -> np.ndarray | None:
    """The entries of ``eval --format json`` output, or None."""
    lines = text.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
        return np.asarray(doc["entries"], dtype=np.float64)
    except (IndexError, ValueError, KeyError, TypeError):
        return None

"""From derivations to meanings: tensor-network construction and contraction.

:func:`build_network` turns a derivation plus per-token tensors into a
:class:`TensorNetwork` whose edges mirror the contraction links, checking
every wire against the declared types.  :func:`evaluate` contracts the
network; the result does not depend on the edge order.

:func:`evaluate_sentence` is the end-to-end pipeline.  Its two modes must
agree: ``explicit`` contracts coordinator tensors like any other word,
``closed-form`` collapses each coordinated region to the entry-wise merge
of its evaluated conjuncts first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CoordinationStructureError, DimMismatch, MissingSpace,
                     SemiringMismatch, UngrammaticalSentence, UnknownWord,
                     WireTypeMismatch)
from .pregroup import Derivation, PregroupType, parse_type, reduce
from .semiring import Semiring
from .tensor import Tensor, Wire, frobenius_mu


class SpaceAssignment:
    """Maps each base symbol to the dimension of its vector space."""

    def __init__(self, dims: dict):
        for base, d in dims.items():
            if not isinstance(d, int) or d < 1:
                raise DimMismatch(f"space for {base!r} must have dim >= 1")
        self._dims = dict(dims)

    def dim(self, base: str) -> int:
        try:
            return self._dims[base]
        except KeyError:
            raise MissingSpace(f"no dimension assigned to {base!r}") from None

    def wires(self, ptype: PregroupType) -> tuple[Wire, ...]:
        """The wire signature of a pregroup type under this assignment."""
        return tuple(Wire(s.base, s.z, self.dim(s.base)) for s in ptype)

    def bases(self):
        return set(self._dims)

    def as_dict(self) -> dict:
        return dict(self._dims)

    def __eq__(self, other):
        return isinstance(other, SpaceAssignment) and self._dims == other._dims

    def __repr__(self):
        inner = ", ".join(f"{b}={d}" for b, d in self._dims.items())
        return f"SpaceAssignment({inner})"


@dataclass
class TensorNetwork:
    """Word tensors plus contraction edges and the surviving open wires.

    Edges are ``((node, wire), (node, wire))`` pairs; each wire takes part
    in at most one edge.  ``open_wires`` fixes the wire order of the
    evaluation result.
    """

    nodes: list[Tensor]
    edges: list[tuple[tuple[int, int], tuple[int, int]]]
    open_wires: list[tuple[int, int]]

    @property
    def semiring(self) -> Semiring:
        return self.nodes[0].semiring


def build_network(derivation: Derivation, tensors,
                  spaces: SpaceAssignment) -> TensorNetwork:
    """Mirror a derivation's links as contraction edges over word tensors.

    Every tensor is checked wire by wire against its token's type under
    ``spaces``; mixed semirings are rejected.
    """
    tensors = list(tensors)
    if len(tensors) != len(derivation.token_types):
        raise WireTypeMismatch(len(tensors), 0, "one tensor per token",
                               f"{len(tensors)} tensors")
    semiring = tensors[0].semiring
    for tok, (ptype, tensor) in enumerate(zip(derivation.token_types,
                                              tensors)):
        if tensor.semiring is not semiring:
            raise SemiringMismatch(
                f"token {tok} carries {tensor.semiring.name}, "
                f"expected {semiring.name}")
        expected = spaces.wires(ptype)
        if tensor.wires != expected:
            for w, (need, got) in enumerate(zip(expected, tensor.wires)):
                if need != got:
                    raise WireTypeMismatch(tok, w, need, got)
            raise WireTypeMismatch(tok, min(len(expected), tensor.order),
                                   f"{len(expected)} wires",
                                   f"{tensor.order} wires")
    edges = [(derivation.token_wire(i), derivation.token_wire(j))
             for (i, j) in sorted(derivation.links)]
    open_wires = [derivation.token_wire(r) for r in derivation.residual]
    return TensorNetwork(tensors, edges, open_wires)


def evaluate(network: TensorNetwork) -> Tensor:
    """Contract all edges and return the tensor on the open wires.

    Contraction runs in cost order: each step takes the pair of components
    joined by edges whose merged tensor has the fewest cells (ties go to
    the earliest edge) and contracts every edge between them in one
    semiring matrix product, so vectors are absorbed before large tensors
    meet.  Scalar results come back as 0-wire tensors.
    """
    sr = network.semiring
    comp_of = list(range(len(network.nodes)))
    arrays = {c: t.array for c, t in enumerate(network.nodes)}
    wire_ids = {c: [(c, w) for w in range(t.order)]
                for c, t in enumerate(network.nodes)}
    pending = list(network.edges)
    joined_cells = {e: network.nodes[e[0][0]].array.shape[e[0][1]]
                    * network.nodes[e[1][0]].array.shape[e[1][1]]
                    for e in pending}

    def merged_cells(batch):
        (na, _), (nb, _) = pending[batch[0]]
        cells = math.prod(arrays[c].size for c in {comp_of[na], comp_of[nb]})
        for k in batch:
            cells //= joined_cells[pending[k]]
        return cells

    while pending:
        batches = {}
        for k, ((na, _), (nb, _)) in enumerate(pending):
            batches.setdefault(frozenset((comp_of[na], comp_of[nb])),
                               []).append(k)
        # Batches are keyed in order of first edge and min keeps the first
        # of equals, so ties go to the earliest edge.
        batch = min(batches.values(), key=merged_cells)
        edge = (na, wa), (nb, wb) = pending[batch[0]]
        ca, cb = comp_of[na], comp_of[nb]
        if ca == cb:
            ids = wire_ids[ca]
            ia, ib = ids.index((na, wa)), ids.index((nb, wb))
            arr = arrays[ca]
            if arr.shape[ia] != arr.shape[ib]:
                raise DimMismatch(f"edge {edge} joins unequal dims")
            arrays[ca] = sr.sum(np.diagonal(arr, axis1=ia, axis2=ib), axis=-1)
            wire_ids[ca] = [x for k, x in enumerate(ids) if k not in (ia, ib)]
            del pending[batch[0]]
            continue
        ids_a, ids_b = wire_ids[ca], wire_ids[cb]
        axes_a, axes_b = [], []
        for k in batch:
            (xa, ya), (xb, yb) = pending[k]
            if comp_of[xa] != ca:
                (xa, ya), (xb, yb) = (xb, yb), (xa, ya)
            axes_a.append(ids_a.index((xa, ya)))
            axes_b.append(ids_b.index((xb, yb)))
        pending = [e for k, e in enumerate(pending) if k not in batch]
        arr_a, arr_b = arrays[ca], arrays[cb]
        for pa, pb in zip(axes_a, axes_b):
            if arr_a.shape[pa] != arr_b.shape[pb]:
                raise DimMismatch("edge joins unequal dims")
        free_a = [k for k in range(arr_a.ndim) if k not in axes_a]
        free_b = [k for k in range(arr_b.ndim) if k not in axes_b]
        shared = math.prod(arr_a.shape[k] for k in axes_a)
        a2 = np.transpose(arr_a, free_a + axes_a).reshape(-1, shared)
        b2 = np.transpose(arr_b, axes_b + free_b).reshape(shared, -1)
        merged = sr.matmul(a2, b2).reshape(
            tuple(arr_a.shape[k] for k in free_a)
            + tuple(arr_b.shape[k] for k in free_b))
        arrays[ca] = merged
        wire_ids[ca] = ([ids_a[k] for k in free_a]
                        + [ids_b[k] for k in free_b])
        del arrays[cb], wire_ids[cb]
        comp_of = [ca if c == cb else c for c in comp_of]

    roots = sorted(arrays, key=lambda c: min(
        n for n in range(len(network.nodes)) if comp_of[n] == c))
    arr = arrays[roots[0]]
    ids = list(wire_ids[roots[0]])
    for c in roots[1:]:
        other = arrays[c]
        arr = sr.mul(arr.reshape(arr.shape + (1,) * other.ndim), other)
        ids += wire_ids[c]
    if sorted(ids) != sorted(network.open_wires):
        raise DimMismatch(
            f"open wires {network.open_wires} do not match the "
            f"uncontracted wires {ids}")
    perm = [ids.index(ow) for ow in network.open_wires]
    out_wires = tuple(network.nodes[n].wires[w]
                      for (n, w) in network.open_wires)
    return Tensor(out_wires, np.transpose(arr, perm), sr, copy=False)


def _eval_region(types, tensors, links, lo, hi, offsets) -> Tensor:
    """Evaluate tokens ``lo..hi`` with their internal links only.

    The open wires are the region's surviving wires in row order.
    """
    start = offsets[lo]
    stop = offsets[hi] + len(types[hi])
    inside = lambda f: start <= f < stop
    local_tok = lambda f: next(t for t in range(hi, lo - 1, -1)
                               if offsets[t] <= f)
    to_local = lambda f: (local_tok(f) - lo, f - offsets[local_tok(f)])
    edges, linked = [], set()
    for (i, j) in sorted(links):
        if inside(i) and inside(j):
            edges.append((to_local(i), to_local(j)))
            linked.update((i, j))
    open_wires = [to_local(f) for f in range(start, stop) if f not in linked]
    net = TensorNetwork(list(tensors[lo:hi + 1]), edges, open_wires)
    return evaluate(net)


def _collapse_coordinators(types, tensors, is_conj, derivation,
                           spaces: SpaceAssignment):
    """Rewrite every ternary coordination into a merged pseudo-token.

    Innermost coordinators go first.  Each rewrite evaluates the two
    conjunct regions, merges them entry-wise, and splices the result back
    as a single token of the conjunct type.
    """
    types, tensors, is_conj = list(types), list(tensors), list(is_conj)
    while any(is_conj):
        offsets, acc = [], 0
        for t in types:
            offsets.append(acc)
            acc += len(t)
        token_of = {}
        for tok, t in enumerate(types):
            for k in range(len(t)):
                token_of[offsets[tok] + k] = tok
        partner = {}
        for (i, j) in derivation.links:
            partner[i], partner[j] = j, i

        progressed = False
        for c in (t for t in range(len(types)) if is_conj[t]):
            width = len(types[c])
            if width % 3:
                raise CoordinationStructureError(
                    f"coordinator token {c} has width {width}")
            half = width // 3
            off = offsets[c]
            left_block = range(off, off + half)
            right_block = range(off + 2 * half, off + 3 * half)
            if any(p not in partner or partner[p] >= off
                   for p in left_block):
                raise CoordinationStructureError(
                    f"coordinator token {c} is not saturated on the left")
            if any(p not in partner or partner[p] < off + width
                   for p in right_block):
                raise CoordinationStructureError(
                    f"coordinator token {c} is not saturated on the right")

            def conjunct_tokens(seed_block, side):
                # Tokens link-connected to the block, never through the
                # coordinator itself; they must form one row of whole
                # tokens flanking it.
                seen = {token_of[partner[p]] for p in seed_block}
                queue = list(seen)
                while queue:
                    tok = queue.pop()
                    lo, hi = offsets[tok], offsets[tok] + len(types[tok])
                    for f in range(lo, hi):
                        mate = partner.get(f)
                        if mate is None:
                            continue
                        other = token_of[mate]
                        if other != c and other not in seen:
                            seen.add(other)
                            queue.append(other)
                span = range(min(seen), max(seen) + 1)
                if c in span or set(span) != seen:
                    raise CoordinationStructureError(
                        f"{side} conjunct of coordinator token {c} is "
                        f"not a contiguous phrase: tokens {sorted(seen)}")
                return min(seen), max(seen)

            lt, lt_hi = conjunct_tokens(left_block, "left")
            rt_lo, rt = conjunct_tokens(right_block, "right")
            if lt_hi != c - 1 or rt_lo != c + 1:
                raise CoordinationStructureError(
                    f"conjuncts of coordinator token {c} are not adjacent "
                    f"to it")
            if any(is_conj[t] for t in range(lt, c)) or \
               any(is_conj[t] for t in range(c + 1, rt + 1)):
                continue  # an inner coordinator must collapse first
            span_lo = offsets[lt]
            span_hi = offsets[rt] + len(types[rt]) - 1

            x = PregroupType(tuple(types[c])[half:2 * half])
            left = _eval_region(types, tensors, derivation.links,
                                lt, c - 1, offsets)
            right = _eval_region(types, tensors, derivation.links,
                                 c + 1, rt, offsets)
            want = spaces.wires(x)
            for side, got in (("left", left), ("right", right)):
                if got.wires != want:
                    raise CoordinationStructureError(
                        f"{side} conjunct of token {c} evaluates to "
                        f"{got!r}, expected wires {want}")
            merged = frobenius_mu(left, right)

            consumed = set(range(span_lo, off + half)) | \
                set(range(off + 2 * half, span_hi + 1))
            shift = (span_hi - span_lo + 1) - half

            def remap(f):
                if f < span_lo:
                    return f
                if off + half <= f < off + 2 * half:
                    return span_lo + (f - off - half)
                return f - shift

            new_links = set()
            for (i, j) in derivation.links:
                if i in consumed or j in consumed:
                    if not (i in consumed and j in consumed):
                        raise CoordinationStructureError(
                            f"link ({i}, {j}) straddles the coordination")
                    continue
                new_links.add((remap(i), remap(j)))
            new_residual = tuple(remap(f) for f in derivation.residual
                                 if f not in consumed)
            types = types[:lt] + [x] + types[rt + 1:]
            tensors = tensors[:lt] + [merged] + tensors[rt + 1:]
            is_conj = is_conj[:lt] + [False] + is_conj[rt + 1:]
            derivation = Derivation(tuple(types), frozenset(new_links),
                                    new_residual)
            progressed = True
            break
        if not progressed:
            raise CoordinationStructureError(
                "coordinators remain but none heads a ternary pattern")
    return types, tensors, derivation


def evaluate_sentence(tokens, lexicon, target, mode="explicit") -> Tensor:
    """Parse, reduce and contract a sentence against a lexicon.

    ``tokens`` are words, optionally ``(word, type-string)`` pairs checked
    against the lexicon.  ``target`` is a type string.  ``mode`` is
    ``"explicit"`` (contract coordinator tensors directly) or
    ``"closed-form"`` (merge evaluated conjuncts entry-wise); the two are
    interchangeable on every well-typed sentence.
    """
    if mode not in ("explicit", "closed-form"):
        raise ValueError(f"mode must be explicit or closed-form, got {mode!r}")
    spaces = lexicon.spaces
    bases = spaces.bases()
    words, types, tensors, is_conj = [], [], [], []
    for token in tokens:
        word, declared = (token, None) if isinstance(token, str) else token
        if word not in lexicon:
            raise UnknownWord(f"{word!r} is not in the lexicon")
        entry = lexicon[word]
        if declared is not None:
            if parse_type(declared, bases) != entry.type:
                raise WireTypeMismatch(len(words), 0, entry.type, declared)
        words.append(word)
        types.append(entry.type)
        tensors.append(entry.tensor)
        is_conj.append(entry.is_coordinator)
    target_type = parse_type(target, bases) if isinstance(target, str) \
        else target
    derivation = reduce(types, target_type)
    if derivation is None:
        raise UngrammaticalSentence(
            f"{' '.join(words)!r} does not reduce to {target_type}")
    if mode == "closed-form":
        types, tensors, derivation = _collapse_coordinators(
            types, tensors, is_conj, derivation, spaces)
    return evaluate(build_network(derivation, tensors, spaces))

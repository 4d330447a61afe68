"""From derivations to meanings: tensor-network construction and contraction.

:func:`build_network` turns a derivation plus per-token tensors into a
:class:`TensorNetwork` whose edges mirror the contraction links, checking
every wire against the declared types.  A coordinator token enters the
network as structure, not data: one three-legged copy spider per atomic
factor of its conjunct type, ``k * d**3`` cells where the dense
coordinator has ``d**(3k)``.  :func:`evaluate` contracts the network; the
result does not depend on the edge order.  An edge identifies two wires
and a wire may sit in several edges, so each class of identified wires is
one index, a copy spider: it is summed out unless the class holds an open
wire.

:func:`evaluate_sentence` is the end-to-end pipeline.  Its two modes must
agree: ``explicit`` contracts each coordinator's spiders as nodes like any
other word, ``closed-form`` drops them and identifies the wires at their
three legs instead, which merges the conjuncts entry-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (DimMismatch, MissingSpace, OutOfMemory,
                     SemiringMismatch, UngrammaticalSentence, UnknownWord,
                     WireTypeMismatch)
from .pregroup import Derivation, PregroupType, parse_type, reduce
from .semiring import Semiring
from .tensor import Tensor, Wire, frobenius_zeta


class SpaceAssignment:
    """Maps each base symbol to the dimension of its vector space."""

    def __init__(self, dims: dict):
        for base, d in dims.items():
            if not isinstance(d, int) or d < 1:
                raise DimMismatch(f"space for {base!r} must have dim >= 1")
        self._dims = dict(dims)
        self._wires = {}

    def dim(self, base: str) -> int:
        try:
            return self._dims[base]
        except KeyError:
            raise MissingSpace(f"no dimension assigned to {base!r}") from None

    def wires(self, ptype: PregroupType) -> tuple[Wire, ...]:
        """The wire signature of a pregroup type under this assignment."""
        try:
            return self._wires[ptype]
        except KeyError:
            wires = tuple(Wire(s.base, s.z, self.dim(s.base)) for s in ptype)
            self._wires[ptype] = wires
            return wires

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

    Edges are ``((node, wire), (node, wire))`` pairs.  An edge identifies
    its two wires, and a wire may take part in several edges; each class of
    identified wires is one index, summed out unless the class holds an
    open wire.  ``open_wires`` fixes the wire order of the evaluation
    result; open wires of one class carry copies of the same index.
    """

    nodes: list[Tensor]
    edges: list[tuple[tuple[int, int], tuple[int, int]]]
    open_wires: list[tuple[int, int]]

    @property
    def semiring(self) -> Semiring:
        return self.nodes[0].semiring


@lru_cache(maxsize=None)
def _copy_array(dim: int, semiring: Semiring) -> np.ndarray:
    """The read-only ``dim**3`` copy tensor: ``one`` at each ``(j, j, j)``.

    A spider depends only on its dimension and carrier, so each is built
    once per process and shared by every network that needs it.
    """
    arr = np.zeros((dim,) * 3, dtype=semiring.dtype)
    diag = np.arange(dim)
    arr[diag, diag, diag] = semiring.one
    arr.setflags(write=False)
    return arr


def _spider_legs(k: int) -> list[tuple[int, int, int]]:
    """Where the copy spiders of a coordinator for a ``k``-factor type sit.

    Factor ``p``'s spider has legs at the mirrored ``x.r`` position
    ``k-1-p``, the middle position ``k+p`` and the mirrored ``x.l``
    position ``3k-1-p`` of the type ``x.r x x.l``: the layout of
    ``coordinator_tensor``, whose dense tensor is the spiders' product.
    """
    return [(k - 1 - p, k + p, 3 * k - 1 - p) for p in range(k)]


def _spiders(tok: int, wires, semiring: Semiring):
    """The copy spiders of coordinator token ``tok`` typed ``x.r x x.l``.

    Yields ``(legs, spider)`` per atomic factor of ``x``, the spider's
    wires taken from the token's ``wires`` at its ``legs``
    (:func:`_spider_legs`).
    """
    k, extra = divmod(len(wires), 3)
    if extra or not k:
        raise WireTypeMismatch(tok, 0, "a coordinator type x.r x x.l",
                               f"{len(wires)} wires")
    for legs in _spider_legs(k):
        mid = wires[legs[1]]
        for leg, step in ((legs[0], 1), (legs[2], -1)):
            got = wires[leg]
            if (got.base, got.z, got.dim) != (mid.base, mid.z + step,
                                              mid.dim):
                raise WireTypeMismatch(tok, leg, mid.shifted(step), got)
        try:
            arr = _copy_array(mid.dim, semiring)
        except MemoryError:
            raise OutOfMemory(f"token {tok}: a copy spider of "
                              f"{mid.dim ** 3} cells does not fit in "
                              f"memory") from None
        yield legs, Tensor([wires[q] for q in legs], arr, semiring,
                           copy=False)


def build_network(derivation: Derivation, tensors, spaces: SpaceAssignment,
                  semiring: Semiring = None) -> TensorNetwork:
    """Mirror a derivation's links as contraction edges over word tensors.

    Every tensor is checked wire by wire against its token's type under
    ``spaces``; mixed semirings are rejected.  A None tensor stands for a
    coordinator token of type ``x.r x x.l``: it becomes one three-legged
    copy spider node per atomic factor of ``x`` (see :func:`_spiders`).
    ``semiring`` is the carrier, by default that of the first tensor.
    """
    tensors = list(tensors)
    if len(tensors) != len(derivation.token_types):
        raise WireTypeMismatch(len(tensors), 0, "one tensor per token",
                               f"{len(tensors)} tensors")
    if semiring is None:
        semiring = next((t.semiring for t in tensors if t is not None), None)
        if semiring is None:
            raise ValueError("every token is a coordinator: pass semiring")
    nodes, wire_at = [], [None] * len(derivation.flattened)
    for tok, (ptype, tensor) in enumerate(zip(derivation.token_types,
                                              tensors)):
        expected, off = spaces.wires(ptype), derivation.offsets[tok]
        if tensor is None:
            for legs, spider in _spiders(tok, expected, semiring):
                for leg, q in enumerate(legs):
                    wire_at[off + q] = (len(nodes), leg)
                nodes.append(spider)
            continue
        if tensor.semiring is not semiring:
            raise SemiringMismatch(
                f"token {tok} carries {tensor.semiring.name}, "
                f"expected {semiring.name}")
        if tensor.wires != expected:
            for w, (need, got) in enumerate(zip(expected, tensor.wires)):
                if need != got:
                    raise WireTypeMismatch(tok, w, need, got)
            raise WireTypeMismatch(tok, min(len(expected), tensor.order),
                                   f"{len(expected)} wires",
                                   f"{tensor.order} wires")
        wire_at[off:off + len(expected)] = [
            (len(nodes), w) for w in range(len(expected))]
        nodes.append(tensor)
    edges = [(wire_at[i], wire_at[j]) for (i, j) in sorted(derivation.links)]
    open_wires = [wire_at[r] for r in derivation.residual]
    return TensorNetwork(nodes, edges, open_wires)


def _root(parent: list, x: int) -> int:
    """The root of ``x`` in a union-find forest, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _contract(derivation: Derivation, tensors, spaces: SpaceAssignment,
              semiring: Semiring, mode: str) -> Tensor:
    """Contract a derivation whose coordinator tokens hold None tensors.

    ``explicit`` evaluates :func:`build_network`, which turns each
    coordinator into its copy spiders.  ``closed-form`` drops the
    coordinator tokens (they may be all the tokens, hence ``semiring``)
    and keeps their copy spiders as identified wires: the wires linked to
    the three legs of one spider (:func:`_spider_legs`) become one class.
    """
    if mode == "explicit":
        return evaluate(build_network(derivation, tensors, spaces, semiring))
    if mode != "closed-form":
        raise ValueError(f"mode must be explicit or closed-form, got {mode!r}")
    types, offsets = derivation.token_types, derivation.offsets
    parent = list(range(len(derivation.flattened)))
    find = lambda f: _root(parent, f)
    joined = list(derivation.links)
    for tok in (t for t, tensor in enumerate(tensors) if tensor is None):
        off = offsets[tok]
        for outer_r, mid, outer_l in _spider_legs(len(types[tok]) // 3):
            joined += [(off + mid, off + outer_r), (off + mid, off + outer_l)]
    for i, j in joined:
        parent[find(j)] = find(i)

    kept = [tok for tok, tensor in enumerate(tensors) if tensor is not None]
    nodes = [tensors[tok] for tok in kept]
    wire_of, edges = {}, []
    for node, tok in enumerate(kept):
        for w in range(len(types[tok])):
            root = find(offsets[tok] + w)
            if root in wire_of:
                edges.append((wire_of[root], (node, w)))
            else:
                wire_of[root] = (node, w)
    for f, s in enumerate(derivation.flattened):
        if find(f) not in wire_of:
            # Spiders joined only to each other fuse into one spider: the
            # all-ones vector on one wire of the class.
            nodes.append(frobenius_zeta(s.base, spaces.dim(s.base), s.z,
                                        semiring))
            wire_of[find(f)] = (len(nodes) - 1, 0)
    result = evaluate(TensorNetwork(
        nodes, sorted(edges), [wire_of[find(r)] for r in derivation.residual]))
    # A surviving coordinator leg reads a wire of its class, whose adjoint
    # order may differ; the result is typed by the residual.
    return Tensor(spaces.wires(derivation.residual_type()), result.array,
                  semiring, copy=False)


def evaluate(network: TensorNetwork) -> Tensor:
    """Contract all edges and return the tensor on the open wires.

    Each class of wires identified by edges is one index.  Contraction runs
    in cost order: each step merges the pair of components sharing an
    index whose merged tensor has the fewest cells (ties go to the pair
    whose shared index first appears in the edge list).  A shared index is
    summed out unless its class holds an open wire or a wire in a third
    component; such an index is kept as a batch axis.  A step without batch
    axes is one semiring matrix product, so vectors are absorbed before
    large tensors meet.  Scalar results come back as 0-wire tensors.
    """
    sr, nodes = network.semiring, network.nodes
    if any(t.semiring is not sr for t in nodes):
        raise SemiringMismatch("network nodes carry different semirings")
    # Wires in edges are numbered in order of first appearance, and a
    # class's label is the lowest number among its wires.  A wire in no
    # edge is a class of its own, labelled by the wire itself.
    number, parent = {}, []
    find = lambda x: _root(parent, x)
    for a, b in network.edges:
        if nodes[a[0]].wires[a[1]].dim != nodes[b[0]].wires[b[1]].dim:
            raise DimMismatch(f"edge {(a, b)} joins unequal dims")
        for w in (a, b):
            if w not in number:
                number[w] = len(parent)
                parent.append(len(parent))
        ra, rb = find(number[a]), find(number[b])
        parent[max(ra, rb)] = min(ra, rb)
    wire_at, label = list(number), {w: find(i) for w, i in number.items()}
    holders = {l: set() for l, p in enumerate(parent) if l == p}
    dim, arrays, labels = {}, {}, {}
    for n, t in enumerate(nodes):
        arr = t.array
        labs = [label.get((n, w), (n, w)) for w in range(arr.ndim)]
        dim.update(zip(labs, arr.shape))
        if len(set(labs)) < len(labs):
            # Wires of one node in one class keep only their diagonal.
            uniq = list(dict.fromkeys(labs))
            arr = np.einsum(arr, [uniq.index(l) for l in labs],
                            list(range(len(uniq))))
            labs = uniq
        arrays[n], labels[n] = arr, labs
        for l in labs:
            if l in holders:
                holders[l].add(n)
    out = [label.get(w, w) for w in network.open_wires]
    open_labels = set(out)
    if not open_labels <= dim.keys():
        raise DimMismatch(f"open wires {network.open_wires} name a wire "
                          f"outside the network")
    holders = {l: frozenset(c) for l, c in holders.items() if len(c) > 1}
    comp_of = list(range(len(nodes)))
    cells = lambda labs: math.prod(dim[l] for l in labs)

    def cost(item):
        (ca, cb), shared = item
        size = arrays[ca].size * arrays[cb].size
        for l in shared:
            kept = l in open_labels or len(holders[l]) > 2
            size //= dim[l] if kept else dim[l] ** 2
        return size, shared[0]

    while holders:
        pairs = {}
        for l, comps in holders.items():
            for pair in [comps] if len(comps) == 2 else \
                    map(frozenset, combinations(comps, 2)):
                pairs.setdefault(pair, []).append(l)
        (ca, cb), shared = min(pairs.items(), key=cost)
        if comp_of[wire_at[shared[0]][0]] != ca:
            ca, cb = cb, ca
        la, lb = labels[ca], labels.pop(cb)
        batch = [l for l in shared
                 if l in open_labels or len(holders[l]) > 2]
        summed = [l for l in shared if l not in batch]
        free_a = [l for l in la if l not in shared]
        free_b = [l for l in lb if l not in shared]
        a = np.transpose(arrays[ca],
                         [la.index(l) for l in batch + free_a + summed])
        b = np.transpose(arrays.pop(cb),
                         [lb.index(l) for l in batch + summed + free_b])
        k = cells(summed)
        if batch:
            merged = sr.sum(sr.mul(
                a.reshape(cells(batch), -1, k, 1),
                b.reshape(cells(batch), 1, k, -1)), axis=2)
        else:
            merged = sr.matmul(a.reshape(-1, k), b.reshape(k, -1))
        labels[ca] = batch + free_a + free_b
        arrays[ca] = merged.reshape([dim[l] for l in labels[ca]])
        for l in lb:
            if l in holders:
                holders[l] = holders[l] - {cb} | {ca}
                if len(holders[l]) < 2:
                    del holders[l]
        comp_of = [ca if c == cb else c for c in comp_of]

    first, *rest = arrays
    arr, labs = arrays[first], list(labels[first])
    for c in rest:
        arr = sr.mul(arr.reshape(arr.shape + (1,) * arrays[c].ndim),
                     arrays[c])
        labs += labels[c]
    # Classes that hold no open wire and no wire elsewhere are summed out.
    uniq = list(dict.fromkeys(out))
    arr = sr.sum(np.transpose(arr, [labs.index(l) for l in uniq] + [
        k for k, l in enumerate(labs) if l not in open_labels]),
        axis=tuple(range(len(uniq), len(labs))))
    if len(uniq) < len(out):
        # Open wires of one class carry copies of its index.
        copied = np.zeros([dim[l] for l in out], dtype=sr.dtype)
        np.einsum(copied, [uniq.index(l) for l in out],
                  list(range(len(uniq))))[...] = arr
        arr = copied
    out_wires = tuple(nodes[n].wires[w] for (n, w) in network.open_wires)
    return Tensor(out_wires, arr, sr, copy=False)


def evaluate_sentence(tokens, lexicon, target, mode="explicit") -> Tensor:
    """Parse, reduce and contract a sentence against a lexicon.

    ``tokens`` are words, optionally ``(word, type-string)`` pairs checked
    against the lexicon.  ``target`` is a type string.  ``mode`` is
    ``"explicit"`` (contract each coordinator as its copy spiders, one
    three-legged node per atomic factor of its conjunct type) or
    ``"closed-form"`` (identify the wires at each spider's three legs,
    which merges the conjuncts entry-wise); the two are interchangeable
    on every well-typed sentence.  Neither mode reads a coordinator's
    dense ``entry.tensor``, so neither builds it.
    """
    spaces = lexicon.spaces
    bases = spaces.bases()
    words, types, tensors = [], [], []
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
        tensors.append(None if entry.is_coordinator else entry.tensor)
    target_type = parse_type(target, bases) if isinstance(target, str) \
        else target
    derivation = reduce(types, target_type)
    if derivation is None:
        raise UngrammaticalSentence(
            f"{' '.join(words)!r} does not reduce to {target_type}")
    return _contract(derivation, tensors, spaces, lexicon.semiring, mode)

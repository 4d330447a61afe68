"""From derivations to meanings: tensor-network construction and contraction.

:func:`build_network` is the one place that turns a derivation plus
per-token tensors into a :class:`TensorNetwork`, in either mode, checking
every word tensor against its type.  A coordinator token enters as
structure, not data: one three-legged copy spider per atomic factor of its
conjunct type.  ``explicit`` mode makes each spider a node (``k * d**3``
cells where the dense coordinator has ``d**(3k)``); ``closed-form`` makes
none and identifies the wires at the spider's legs, which merges the
conjuncts entry-wise.  The two modes agree on every well-typed sentence.
A network gives each wire of each node one integer label, einsum's sublist
form: wires with one label share one index, a copy spider, which
:func:`evaluate` sums out unless an open wire holds it.  The result does
not depend on how the labels are numbered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (DimMismatch, MissingSpace, OutOfMemory, Overflow,
                     SemiringMismatch, ShapeMismatch, UngrammaticalSentence,
                     WireTypeMismatch)
from .pregroup import (Derivation, PregroupType, conjunct_type,
                       coordinator_legs, parse_type, reduce)
from .semiring import REAL, Semiring
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
        wires = self._wires.get(ptype)
        if wires is None:
            wires = tuple([Wire(s.base, s.z, self.dim(s.base)) for s in ptype])
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
    """Word tensors, an index label per wire and the surviving open wires.

    ``indices[n]`` gives one integer label per wire of ``nodes[n]``; wires
    with one label share one index, summed out unless an open wire holds
    it.  ``open_wires`` are ``(node, wire)`` pairs and fix the wire order
    of the evaluation result; open wires with one label carry copies of
    the same index.
    """

    nodes: list[Tensor]
    indices: list[list[int]]
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


def build_network(derivation: Derivation, tensors, spaces: SpaceAssignment,
                  semiring: Semiring = None,
                  mode: str = "explicit") -> TensorNetwork:
    """Label the wires of word tensors by the derivation's links.

    Every tensor is checked wire by wire against its token's type under
    ``spaces``; mixed semirings are rejected.  ``semiring`` is the carrier,
    by default that of the first tensor.  A None tensor is a coordinator of
    type ``x.r x x.l``, one copy spider per factor of ``x`` at
    :func:`coordinator_legs`: a node in ``explicit`` mode, its legs' wires
    joined into one class in ``closed-form``.  The classes of joined wires
    are labelled 0, 1, ... in the order of their first node wire along the
    row; then each class that holds none gets the next label and an
    all-ones vector.  Each open wire is the first node wire of its class.
    In closed form an open wire may differ from its residual type in
    adjoint order.
    """
    if mode not in ("explicit", "closed-form"):
        raise ValueError(f"mode must be explicit or closed-form, got {mode!r}")
    tensors = list(tensors)
    if len(tensors) != len(derivation.token_types):
        raise WireTypeMismatch(len(tensors), 0, "one tensor per token",
                               f"{len(tensors)} tensors")
    if semiring is None:
        semiring = next((t.semiring for t in tensors if t is not None), None)
        if semiring is None:
            raise ValueError("every token is a coordinator: pass semiring")
    flat = derivation.flattened
    nodes, wire_at = [], [None] * len(flat)
    joined = list(derivation.links)
    for tok, (ptype, tensor) in enumerate(zip(derivation.token_types,
                                              tensors)):
        expected, off = spaces.wires(ptype), derivation.offsets[tok]
        if tensor is None:
            x = conjunct_type(ptype)
            if isinstance(x, int):
                raise WireTypeMismatch(tok, x, "a coordinator type x.r x x.l",
                                       ptype)
            for legs in coordinator_legs(len(x)):
                if mode == "closed-form":
                    joined += [(off + legs[1], off + q) for q in legs[::2]]
                    continue
                dim = expected[legs[1]].dim
                try:
                    arr = _copy_array(dim, semiring)
                except (MemoryError, ValueError):  # past numpy's limit
                    raise OutOfMemory(f"token {tok}: a copy spider of "
                                      f"{dim ** 3} cells does not fit in "
                                      f"memory") from None
                for leg, q in enumerate(legs):
                    wire_at[off + q] = (len(nodes), leg)
                nodes.append(Tensor([expected[q] for q in legs], arr,
                                    semiring, copy=False))
            continue
        if tensor.semiring is not semiring:
            raise SemiringMismatch(
                f"token {tok} carries {tensor.semiring.name}, "
                f"expected {semiring.name}")
        if tensor.wires != expected:
            for w, (need, got) in enumerate(zip(expected, tensor.wires)):
                if need != got:
                    raise WireTypeMismatch(tok, w, f"{need}:{need.dim}",
                                           f"{got}:{got.dim}")
            raise WireTypeMismatch(tok, min(len(expected), tensor.order),
                                   f"{len(expected)} wires",
                                   f"{tensor.order} wires")
        wire_at[off:off + len(expected)] = [
            (len(nodes), w) for w in range(len(expected))]
        nodes.append(tensor)
    parent = list(range(len(flat)))
    for i, j in joined:
        parent[_root(parent, j)] = _root(parent, i)
    root = [_root(parent, f) for f in range(len(flat))]
    # first: class root -> (label, first node wire), classes in row order
    indices, first = [[None] * t.order for t in nodes], {}
    for f, wire in enumerate(wire_at):
        if wire is not None:
            first.setdefault(root[f], (len(first), wire))
            indices[wire[0]][wire[1]] = first[root[f]][0]
    for f, s in enumerate(flat):
        if root[f] not in first:
            # Spiders joined only to each other fuse into the all-ones vector.
            first[root[f]] = (len(first), (len(nodes), 0))
            indices.append([len(first) - 1])
            nodes.append(frobenius_zeta(s.base, spaces.dim(s.base), s.z,
                                        semiring))
    return TensorNetwork(nodes, indices, [first[root[r]][1]
                                          for r in derivation.residual])


def _root(parent: list, x: int) -> int:
    """The root of ``x`` in a union-find forest, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def evaluate(network: TensorNetwork) -> Tensor:
    """Contract the network and return the tensor on the open wires.

    Wires with one label are one index, and one label has one dimension.
    Contraction runs in cost order: each step merges the pair of components
    sharing an index whose merged tensor has the fewest cells (ties go to
    the lowest shared label, then to the lowest pair; the component holding
    that label's lowest-numbered node survives).  A shared index is summed
    out unless an open wire or a third component holds it; such an index
    is kept as a batch axis.  A step without batch axes is one semiring
    matrix product, so vectors are absorbed before large tensors meet.
    Scalar results come back as 0-wire tensors.
    """
    sr, nodes = network.semiring, network.nodes
    if any(t.semiring is not sr for t in nodes):
        raise SemiringMismatch("network nodes carry different semirings")
    orders = [t.order for t in nodes]
    counts = [len(labs) for labs in network.indices]
    if counts != orders:
        raise ShapeMismatch(f"label counts {counts} differ from node orders "
                            f"{orders}")
    dim, holders, arrays, labels = {}, {}, {}, {}
    for n, (t, labs) in enumerate(zip(nodes, network.indices)):
        arr = t.array
        for l, d in zip(labs, arr.shape):
            if dim.setdefault(l, d) != d:
                raise DimMismatch(f"label {l} joins unequal dims")
            holders.setdefault(l, set()).add(n)
        if len(set(labs)) < len(labs):
            # Wires of one node with one label keep only their diagonal.
            uniq = list(dict.fromkeys(labs))
            arr = np.einsum(arr, [uniq.index(l) for l in labs],
                            list(range(len(uniq))))
            labs = uniq
        arrays[n], labels[n] = arr, labs
    if not all(0 <= n < len(nodes) and 0 <= w < orders[n]
               for n, w in network.open_wires):
        raise DimMismatch(f"open wires {network.open_wires} name a wire "
                          f"outside the network")
    out = [network.indices[n][w] for n, w in network.open_wires]
    open_labels = set(out)
    holders = {l: holders[l] for l in sorted(holders) if len(holders[l]) > 1}
    owner = {l: min(c) for l, c in holders.items()}
    comp = list(range(len(nodes)))  # union-find; a root names a component
    cells = lambda labs: math.prod(dim[l] for l in labs)
    kept = lambda l: l in open_labels or len(holders[l]) > 2

    def cost(a, b, shared):
        size = arrays[a].size * arrays[b].size
        for l in shared:
            size //= dim[l] if kept(l) else dim[l] ** 2
        return size

    # Each pair of components that shares an index has its shared labels
    # in ascending order and a key (cost, first shared label, pair); a step
    # takes the pair of least key.  A merge changes only the keys of the
    # merged components' pairs: those of the surviving component are
    # redone, and those of the merged-away one dropped (its partners are
    # all partners of the survivor now).
    shares = {}
    for l in holders:  # in ascending order
        for pair in combinations(sorted(holders[l]), 2):
            shares.setdefault(pair, []).append(l)
    keys = {p: (cost(*p, s), s[0], p) for p, s in shares.items()}
    while keys:
        _, first, pair = min(keys.values())
        del keys[pair]
        shared = shares[pair]
        ca, cb = pair
        if _root(comp, owner[first]) != ca:
            ca, cb = cb, ca
        la, lb = labels[ca], labels.pop(cb)
        batch = [l for l in shared if kept(l)]
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
        comp[cb] = ca
        for l in la + lb:
            if l in holders:
                holders[l].discard(cb)
                holders[l].add(ca)
                if len(holders[l]) < 2:
                    del holders[l]
        fresh = {}
        for l in sorted(l for l in labels[ca] if l in holders):
            for other in holders[l]:
                if other != ca:
                    p = (ca, other) if ca < other else (other, ca)
                    fresh.setdefault(p, []).append(l)
        for p, s in fresh.items():
            other = p[0] if p[1] == ca else p[1]
            keys.pop((cb, other) if cb < other else (other, cb), None)
            shares[p], keys[p] = s, (cost(*p, s), s[0], p)

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


def _row_meaning(types, tensors, target: PregroupType,
                 spaces: SpaceAssignment, semiring: Semiring, mode: str,
                 refusal) -> Tensor:
    """Reduce ``types`` to ``target`` (else raise ``refusal()``), contract
    the network in ``mode`` and type the result by the residual.  A real
    result that is not finite raises :class:`Overflow`."""
    derivation = reduce(types, target)
    if derivation is None:
        raise refusal()
    with np.errstate(over="ignore", invalid="ignore"):
        result = evaluate(build_network(derivation, tensors, spaces,
                                        semiring, mode))
    if semiring is REAL and not np.isfinite(result.array).all():
        raise Overflow("the meaning is not finite: float64 arithmetic "
                       "overflowed")
    return Tensor(spaces.wires(derivation.residual_type()), result.array,
                  semiring, copy=False)


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
    row = lexicon.row(tokens)
    tensors = [None if e.is_coordinator else e.tensor for e in row]
    target_type = parse_type(target, lexicon.spaces.bases()) \
        if isinstance(target, str) else target
    return _row_meaning([e.type for e in row], tensors, target_type,
                        lexicon.spaces, lexicon.semiring, mode,
                        lambda: UngrammaticalSentence(
                            f"{' '.join(e.word for e in row)!r} does not "
                            f"reduce to {target_type}"))

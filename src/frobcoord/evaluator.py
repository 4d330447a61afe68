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

Contraction is compiled, then replayed.  :func:`plan_contraction` checks a
network's structure and chooses every array operation: one einsum per node
that keeps a diagonal or sums a label no other node holds, then pairwise
steps in cost order (a long hyperedge folded in as a star), then outer
products of the components that share nothing.  Each step is one product:
a semiring matrix product of two matrices, or one einsum over the batch
entries of indices a third component or an open wire still holds (an
entry-wise product when nothing is summed, the merge of the closed form).
It returns an immutable :class:`ContractionPlan` of transposes, reshapes
and shapes, with the largest array the contraction makes.  Plans are
cached (a bounded LRU; ``plan_contraction.cache_info()`` and
``cache_clear()``) on the structure alone: labels, node shapes and open
wires.  Words and carrier are not part of the key, and the mode already
shows in the labels, so every sentence of one type row replays one plan.
:func:`evaluate` looks the plan up and runs it: transposes, reshapes,
semiring matrix products and einsum calls, nothing else.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (DimMismatch, EmptyType, InvalidDerivation, MissingSpace,
                     OutOfMemory, Overflow, SemiringMismatch, ShapeMismatch,
                     UngrammaticalSentence, WireTypeMismatch)
from .pregroup import (Derivation, PregroupType, conjunct_type,
                       coordinator_legs, parse_type, reduce)
from .semiring import Semiring
from .tensor import MAX_AXES, Tensor, Wire, _checked_dim, frobenius_zeta

MODES = ("explicit", "closed-form")
"""The evaluation modes: each coordinator's copy spiders as nodes, or its
legs' wires identified."""


class SpaceAssignment:
    """Maps each base symbol to the dimension of its vector space, a
    Python ``int`` of at least 1 (not a ``bool``, not a numpy integer)."""

    def __init__(self, dims: dict):
        for base, d in dims.items():
            _checked_dim(d, f"space for {base!r}")
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
    joined into one class in ``closed-form``.  A derivation link between two
    wires of one None token raises :class:`InvalidDerivation`: a
    coordinator's legs merge the conjuncts around it, so reduce such a row
    with the coordinator positions (``reduce(..., coordinators=...)``).
    An empty row raises :class:`EmptyType`.  The classes of joined wires
    are labelled 0, 1, ... in the order of their first node wire along the
    row; then each class that holds none gets the next label and an
    all-ones vector.  Each open wire is the first node wire of its class.
    In closed form an open wire may differ from its residual type in
    adjoint order.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be explicit or closed-form, got {mode!r}")
    tensors = list(tensors)
    if not derivation.token_types:
        raise EmptyType("cannot build a network for an empty token sequence")
    if len(tensors) != len(derivation.token_types):
        raise WireTypeMismatch(len(tensors), 0, "one tensor per token",
                               f"{len(tensors)} tensors")
    if semiring is None:
        semiring = next((t.semiring for t in tensors if t is not None), None)
        if semiring is None:
            raise ValueError("every token is a coordinator: pass semiring")
    flat = derivation.flattened
    # owner: flat position -> its token, for the wires of None tokens;
    # fused: the pairs of spider legs that closed form joins.
    nodes, fused = [], []
    wire_at, owner = [None] * len(flat), [None] * len(flat)
    for tok, (ptype, tensor) in enumerate(zip(derivation.token_types,
                                              tensors)):
        expected, off = spaces.wires(ptype), derivation.offsets[tok]
        if tensor is None:
            x = conjunct_type(ptype)
            if isinstance(x, int):
                raise WireTypeMismatch(tok, x, "a coordinator type x.r x x.l",
                                       ptype)
            owner[off:off + len(ptype)] = [tok] * len(ptype)
            for legs in coordinator_legs(len(x)):
                if mode == "closed-form":
                    fused += [(off + legs[1], off + q) for q in legs[::2]]
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
    for i, j in derivation.links:
        if owner[i] is not None and owner[i] == owner[j]:
            raise InvalidDerivation(
                f"link ({i}, {j}) joins two wires of coordinator token "
                f"{owner[i]}: reduce the row with its coordinator positions")
        parent[_root(parent, j)] = _root(parent, i)
    for i, j in fused:
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


# Plans kept by plan_contraction: a workload has few distinct row shapes.
_PLAN_CACHE_SIZE = 256
# A label on at most this many nodes offers every pair of its components;
# one on more folds in as a star (see plan_contraction).
_PAIRED_HOLDERS = 8
# np.einsum takes the integer subscripts 0 to 51 only.
_EINSUM_SUBSCRIPTS = 52


class Step(NamedTuple):
    """One pairwise contraction: slot ``a`` absorbs slot ``b``.

    Each operand is transposed by its ``perm`` and reshaped to its
    ``shape``: ``(m, k)`` and ``(k, n)`` for one semiring matrix product,
    or ``(nb, m, k)`` and ``(nb, k, n)`` for a batch step, one einsum
    product over the ``nb`` shared batch entries that allocates only its
    ``(nb, m, n)`` result.  Components that share no label meet in a batch
    step of ``(1, m, 1)`` and ``(1, 1, n)``, an outer product.  The result
    is reshaped to ``shape``, one axis per label of the merged component.
    """

    a: int
    b: int
    perm_a: tuple
    perm_b: tuple
    shape_a: tuple
    shape_b: tuple
    shape: tuple
    batch: bool


class ContractionPlan(NamedTuple):
    """Everything :func:`evaluate` does to a network's arrays, in order.

    ``prep`` holds ``(node, subscripts, output)`` einsum calls, one for
    each node with a label on two of its wires or a private label (one
    that no other node and no open wire holds): the call keeps the
    diagonal and sums the private labels out.  After the ``steps``, slot
    ``result`` holds the product, every axis of which is an open label; it
    is transposed by ``perm``.  ``copy`` is ``(shape, subscripts)`` when
    open wires repeat a label, else None.  ``max_cells`` is the largest
    array that a prep call, a step or the copy makes (0 when none runs).
    Nothing else allocates, except a reshape of a transposed operand,
    which copies an input or an earlier result of the same size.
    """

    prep: tuple
    steps: tuple
    result: int
    perm: tuple
    copy: tuple | None
    max_cells: int


def evaluate(network: TensorNetwork) -> Tensor:
    """Contract the network and return the tensor on the open wires.

    The nodes, at least one (else :class:`EmptyType`), must share one
    semiring, checked on every call.  The
    contraction order comes from :func:`plan_contraction`, which depends
    on the network's structure alone (labels, node shapes, open wires),
    never on its words or carrier (the mode shows in the labels), so
    sentences of one type row replay one cached plan.  Execution only
    transposes, reshapes and calls the semiring's ``matmul`` on two
    matrices or ``np.einsum`` once per prep call or batch step (on boolean
    arrays einsum computes or-of-ands).  Scalar results come back as
    0-wire tensors.
    """
    nodes = network.nodes
    if not nodes:
        raise EmptyType("a network with no nodes has nothing to evaluate")
    sr = network.semiring
    if any(t.semiring is not sr for t in nodes):
        raise SemiringMismatch("network nodes carry different semirings")
    # The key is built from lists: tuple() of a generator or map object
    # resizes as it fills, and that churn alone raised peak RSS by about
    # 1 MB over 1 500 in-process rounds of the vp-chains workload.
    plan = plan_contraction(tuple([tuple(labs) for labs in network.indices]),
                            tuple([t.array.shape for t in nodes]),
                            tuple([tuple(w) for w in network.open_wires]))
    arrays = [t.array for t in nodes]
    for n, sub, out in plan.prep:
        arrays[n] = np.einsum(arrays[n], sub, out)
    for s in plan.steps:
        a = arrays[s.a].transpose(s.perm_a).reshape(s.shape_a)
        b = arrays[s.b].transpose(s.perm_b).reshape(s.shape_b)
        arrays[s.b] = None
        merged = (np.einsum(a, (0, 1, 2), b, (0, 2, 3), (0, 1, 3))
                  if s.batch else sr.matmul(a, b))
        arrays[s.a] = merged.reshape(s.shape)
    arr = arrays[plan.result].transpose(plan.perm)
    if plan.copy is not None:
        shape, sub = plan.copy
        copied = np.zeros(shape, dtype=sr.dtype)
        np.einsum(copied, sub, tuple(range(arr.ndim)))[...] = arr
        arr = copied
    out_wires = tuple([nodes[n].wires[w] for n, w in network.open_wires])
    return Tensor(out_wires, arr, sr, copy=False)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def plan_contraction(indices: tuple, shapes: tuple,
                     open_wires: tuple) -> ContractionPlan:
    """Check a network's structure and choose its contraction order.

    ``indices`` holds each node's labels, ``shapes`` each node's array
    shape and ``open_wires`` the ``(node, wire)`` pairs, all as tuples.
    Wires with one label are one index, and one label has one dimension.
    Each node first keeps its diagonals and sums out its private labels.
    Contraction then runs in cost order: each step merges the pair of
    components sharing an index whose merged tensor has the fewest cells
    (ties go to the lowest shared label, then to the lowest pair; the
    component holding that label's lowest-numbered node survives).  A
    shared index is summed out unless an open wire or a third component
    holds it; such an index is kept as a batch axis.  A step without
    batch axes is one semiring matrix product, so vectors are absorbed
    before large tensors meet.  The pairs on offer are those of
    components that share a label, except that a label on more than
    ``_PAIRED_HOLDERS`` nodes (a long hyperedge, such as the subject wire
    of a closed-form verb-phrase chain) offers only one pair at a time:
    the component of its lowest-numbered node with that of its next node
    in order, so the edge folds in as a star and planning stays near
    linear in its length.  Components left sharing nothing then meet in
    outer products, in the order of their lowest nodes.  An array past
    numpy's axis limit, or an einsum call past its subscript limit, raises
    :class:`OutOfMemory` before anything runs, and a network with no nodes
    raises :class:`EmptyType`.  Plans are cached by their
    arguments; a network that fails a check raises and is not cached.
    """
    if not shapes:
        raise EmptyType("a network with no nodes has nothing to contract")
    counts, orders = list(map(len, indices)), list(map(len, shapes))
    if counts != orders:
        raise ShapeMismatch(f"label counts {counts} differ from node orders "
                            f"{orders}")
    # holders: label -> its nodes in ascending order.
    dim, holders = {}, {}
    for n, labs in enumerate(indices):
        for l, d in zip(labs, shapes[n]):
            if dim.setdefault(l, d) != d:
                raise DimMismatch(f"label {l} joins unequal dims")
            nodes = holders.get(l)
            if nodes is None:
                holders[l] = [n]
            elif nodes[-1] != n:
                nodes.append(n)
    out = []
    for n, w in open_wires:
        if not (0 <= n < len(shapes) and 0 <= w < orders[n]):
            raise DimMismatch(f"open wires {list(open_wires)} name a wire "
                              f"outside the network")
        out.append(indices[n][w])
    open_labels = set(out)
    # made: (what, shape, einsum subscripts) for every array the plan makes.
    labels, size, prep, made = [], [], [], []
    for n, labs in enumerate(indices):
        uniq = list(dict.fromkeys(labs))
        kept = [l for l in uniq if len(holders[l]) > 1 or l in open_labels]
        if kept != list(labs):
            prep.append((n, tuple([uniq.index(l) for l in labs]),
                         tuple([uniq.index(l) for l in kept])))
            made.append((f"the prep einsum of node {n}",
                         tuple([dim[l] for l in kept]), len(uniq)))
        labels.append(kept)
        size.append(math.prod([dim[l] for l in kept]))
    # members: label -> the components holding it, for the labels that two
    # or more hold; stars: label -> the position in its holders of the
    # first node not yet merged into its lowest node's component.
    members, stars = {}, {}
    for l, nodes in holders.items():
        if len(nodes) > 1:
            members[l] = set(nodes)
            if len(nodes) > _PAIRED_HOLDERS:
                stars[l] = 1
    comp = list(range(len(shapes)))  # union-find; a root names a component
    # A heap entry (cost, first shared label, pair, step, shared labels) is
    # current while both components of the pair are roots unchanged since
    # that step.  A shared label is kept while an open wire or a third
    # component holds it.
    changed, heap = [0] * len(shapes), []

    def push(a, b, step):
        if b < a:
            a, b = b, a
        lb = labels[b]
        shared = sorted([l for l in labels[a] if l in lb])
        cost = size[a] * size[b]
        for l in shared:
            d = dim[l]
            cost //= d if l in open_labels or len(members[l]) > 2 else d * d
        heapq.heappush(heap, (cost, shared[0], a, b, step, shared))

    def star_pair(l):
        nodes = holders[l]
        centre = _root(comp, nodes[0])
        while _root(comp, nodes[stars[l]]) == centre:
            stars[l] += 1
        return centre, _root(comp, nodes[stars[l]])

    for l in members:
        for pair in ([star_pair(l)] if l in stars
                     else combinations(holders[l], 2)):
            push(*pair, 0)
    steps, step = [], 0
    while heap:
        _, first, ca, cb, born, shared = heapq.heappop(heap)
        if (comp[ca] != ca or comp[cb] != cb or changed[ca] > born
                or changed[cb] > born):
            continue
        if _root(comp, holders[first][0]) != ca:
            ca, cb = cb, ca
        la, lb = labels[ca], labels[cb]
        batch, summed, nb, k = [], [], 1, 1
        for l in shared:
            if l in open_labels or len(members[l]) > 2:
                batch.append(l)
                nb *= dim[l]
            else:
                summed.append(l)
                k *= dim[l]
        free_a = [l for l in la if l not in shared]
        free_b = [l for l in lb if l not in shared]
        m, n = size[ca] // (nb * k), size[cb] // (nb * k)
        labels[ca], labels[cb] = batch + free_a + free_b, None
        steps.append(Step(
            ca, cb, tuple([la.index(l) for l in batch + free_a + summed]),
            tuple([lb.index(l) for l in batch + summed + free_b]),
            (nb, m, k) if batch else (m, k),
            (nb, k, n) if batch else (k, n),
            tuple([dim[l] for l in labels[ca]]), bool(batch)))
        size[ca] = nb * m * n
        step += 1
        comp[cb], changed[ca] = ca, step
        # Only the pairs with the survivor change; a star's pair without it
        # is still current.
        partners = set()
        for l in labels[ca]:
            comps = members.get(l)
            if comps is None:
                continue
            if cb in comps:
                comps.discard(cb)
                comps.add(ca)
                if len(comps) < 2:
                    del members[l]
                    continue
            if l in stars:
                pair = star_pair(l)
                if ca in pair:
                    partners.update(pair)
            else:
                partners.update(comps)
        for l in summed:
            del members[l]
        partners.discard(ca)
        for other in partners:
            push(ca, other, step)

    result, *rest = [c for c in range(len(shapes)) if comp[c] == c]
    for c in rest:
        la, lb = labels[result], labels[c]
        labels[result] = la + lb
        steps.append(Step(result, c, tuple(range(len(la))),
                          tuple(range(len(lb))), (1, size[result], 1),
                          (1, 1, size[c]),
                          tuple([dim[l] for l in labels[result]]), True))
        size[result] *= size[c]
    made += [(f"contraction step {i}", s.shape, 0)
             for i, s in enumerate(steps)]
    uniq = list(dict.fromkeys(out))
    copy = None
    if len(uniq) < len(out):
        # Open wires of one class carry copies of its index.
        copy = (tuple([dim[l] for l in out]),
                tuple([uniq.index(l) for l in out]))
        made.append(("the copy onto repeated open wires", copy[0],
                     len(uniq)))
    for what, shape, subscripts in made:
        if len(shape) > MAX_AXES:
            raise OutOfMemory(f"{what} would make an array of {len(shape)} "
                              f"axes; numpy allows {MAX_AXES}")
        if subscripts > _EINSUM_SUBSCRIPTS:
            raise OutOfMemory(f"{what} needs {subscripts} subscripts; numpy "
                              f"allows {_EINSUM_SUBSCRIPTS}")
    return ContractionPlan(
        tuple(prep), tuple(steps), result,
        tuple([labels[result].index(l) for l in uniq]), copy,
        max([math.prod(shape) for _, shape, _ in made], default=0))


def _row_meaning(types, tensors, target: PregroupType,
                 spaces: SpaceAssignment, semiring: Semiring, mode: str,
                 refusal) -> Tensor:
    """Reduce ``types`` to ``target`` (else raise ``refusal()``), with the
    None tensors as the coordinators, contract the network in ``mode`` and
    type the result by the residual.  A result that is not finite (a real
    one past float64) raises :class:`Overflow`."""
    derivation = reduce(types, target, coordinators=[
        k for k, tensor in enumerate(tensors) if tensor is None])
    if derivation is None:
        raise refusal()
    with np.errstate(over="ignore", invalid="ignore"):
        result = evaluate(build_network(derivation, tensors, spaces,
                                        semiring, mode))
    if not np.isfinite(result.array).all():
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

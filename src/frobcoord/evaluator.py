"""From derivations to meanings: tensor-network construction and contraction.

:func:`build_network` is the one place that turns a derivation plus
per-token tensors into a :class:`TensorNetwork`, in either mode, checking
every word tensor against its type.  A coordinator token enters as
structure, not data: one three-legged copy spider per atomic factor of its
conjunct type.  ``explicit`` mode makes each spider a node (``k * d**3``
cells where the dense coordinator has ``d**(3k)``); ``closed-form`` makes
none and identifies the wires at the spider's legs, which merges the
conjuncts entry-wise.  The two modes agree on every well-typed sentence,
on the result's wires as on its entries: both type it by the residual of
the derivation, as the coordinator is one morphism on ``x.r x x.l``.
A network gives each wire of each node one integer label, einsum's sublist
form: wires with one label share one index, a copy spider, which
:func:`evaluate` sums out unless an open wire holds it.  The result does
not depend on how the labels are numbered.

A network is compiled, then bound.  Once the derivation is fixed, so are
the wiring, the spiders and the contraction order: the words only supply
arrays.  :func:`compile_network` makes a :class:`NetworkProgram` of a
derivation, its coordinator positions, the mode, the space dimensions and
the carrier: each node's source (a token's tensor, a shared copy spider
or an all-ones vector), the labels, the open wires, the contraction plan
and the result wires.  A program is planned before it makes any array:
its copy spiders and all-ones vectors are made only once the plan holds,
so the planner's refusals come before any allocation.  Programs are
cached (a bounded LRU) by value, so every sentence of one derivation
replays one program.  :meth:`NetworkProgram.bind` makes every per-call
check of the words (their count, each token's slot both ways, and each
tensor against its token) and puts them in; the network it returns
shares the program's labels, open wires, plan, carrier and result wires.
A network is an immutable value that fixes its carrier, its result wires
and the plan of its structure when it is made, so a network with other
labels or open wires is a new one, planned anew, and no network mixes
carriers.

Contraction is planned, then replayed.  :func:`plan_contraction` checks a
network's structure and chooses every array operation: one einsum per node
that keeps a diagonal or sums a label no other node holds, then pairwise
steps in cost order (a long hyperedge folded in as a star), then outer
products of the components that share nothing.  One function builds every
step, and each step is one product: a semiring matrix product of two
matrices, or a product over the batch entries of indices a third
component or an open wire still holds (an entry-wise product when nothing
is summed, the merge of the closed form; an outer product, with one batch
entry, when nothing is shared).
It returns an immutable :class:`ContractionPlan` of transposes, reshapes
and shapes, with the largest array the contraction makes.  Plans are
cached (a bounded LRU; ``plan_contraction.cache_info()`` and
``cache_clear()``) on the structure alone: labels, node shapes and open
wires.  Words and carrier are not part of the key, and the mode already
shows in the labels, so every program of one structure holds one plan.
:func:`evaluate` only replays the plan a network carries: transposes,
reshapes, semiring matrix products, numpy products and einsum calls,
nothing else, on the network's carrier and result wires.  Its result owns
its entries, or is a read-only view of an input of the same size.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (BadArgument, DimMismatch, EmptyType, InvalidDerivation,
                     OutOfMemory, Overflow, SemiringMismatch, ShapeMismatch,
                     UngrammaticalSentence, WireTypeMismatch)
from .pregroup import (Derivation, PregroupType, conjunct_type,
                       coordinator_legs, parse_type, reduce)
from .semiring import Semiring
from .spaces import MODES, SpaceAssignment
from .tensor import MAX_AXES, Tensor, frobenius_zeta


class TensorNetwork:
    """Word tensors, an index label per wire, the surviving open wires, and
    what those fix: the carrier, the result wires and the contraction plan.
    An immutable value.

    ``indices[n]`` gives one integer label per wire of ``nodes[n]``; wires
    with one label share one index, summed out unless an open wire holds
    it.  ``open_wires`` are ``(node, wire)`` pairs and fix the wire order
    of the evaluation result; open wires with one label carry copies of
    the same index.  The constructor keeps each field as a tuple (labels
    and open wires as tuples of tuples), looks up ``plan``, the
    :class:`ContractionPlan` of the labels, node shapes and open wires,
    with :func:`plan_contraction`, then refuses nodes of mixed carriers
    with :class:`SemiringMismatch`, so a network the planner or the
    carrier rule refuses raises and is never made.  ``semiring`` is the
    nodes' carrier and ``result_wires`` the node wires of the open wires,
    the wires of :func:`evaluate`'s result; a network that
    :meth:`NetworkProgram.bind` makes takes its program's residual wires
    instead.  No field can be reassigned or deleted: a network with other
    labels or open wires is a new network, with its own plan.
    """

    def __init__(self, nodes, indices, open_wires):
        nodes, indices = tuple(nodes), tuple([tuple(labs) for labs in indices])
        open_wires = tuple([tuple(w) for w in open_wires])
        plan = plan_contraction(indices, tuple([t.array.shape for t in nodes]),
                                open_wires)
        # The plan refuses a network with no nodes.
        if any(t.semiring is not nodes[0].semiring for t in nodes):
            raise SemiringMismatch("network nodes carry different semirings")
        self._fill(nodes, indices, open_wires, plan, nodes[0].semiring,
                   tuple([nodes[n].wires[w] for n, w in open_wires]))

    def _fill(self, *fields) -> TensorNetwork:
        # Written to the instance dict: __setattr__ refuses every name.
        self.__dict__.update(zip(("nodes", "indices", "open_wires", "plan",
                                  "semiring", "result_wires"), fields))
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change TensorNetwork.{name}")

    __delattr__ = __setattr__


# Plans kept by plan_contraction, and programs kept by compile_network: a
# workload has few distinct row shapes.
_PLAN_CACHE_SIZE = 256


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


class NetworkProgram(NamedTuple):
    """A derivation's network without its words: what
    :func:`compile_network` fixes once per structure.

    ``sources[n]`` is where node ``n`` comes from: the position of the
    token whose tensor it is, or a constant :class:`Tensor`, a shared copy
    spider or an all-ones vector.  ``wires[t]`` is the wire signature that
    token ``t``'s tensor must have, None for a coordinator.  ``indices``,
    ``open_wires`` and ``plan`` are the network's labels, open wires and
    :class:`ContractionPlan`; ``semiring`` is its carrier and
    ``result_wires`` the wires of the derivation's residual type, in
    either mode.
    """

    sources: tuple
    wires: tuple
    indices: tuple
    open_wires: tuple
    plan: ContractionPlan
    semiring: Semiring
    result_wires: tuple

    def bind(self, tensors) -> TensorNetwork:
        """The network of one row's ``tensors`` (None at each coordinator).
        A tensor count other than the token count raises
        :class:`WireTypeMismatch`.  Each token's slot is checked by one
        rule both ways: None at a word token, or a tensor at a coordinator
        token, raises :class:`WireTypeMismatch` naming the token.  Each
        word tensor is then checked against its token: a carrier other
        than the program's raises :class:`SemiringMismatch`, and the first
        wire that differs from the token's type, or else the wire count,
        :class:`WireTypeMismatch`.  The checked tensors have the node
        shapes the plan was made for, so the network shares the program's
        labels, open wires, plan, carrier and result wires, and builds only
        its node tuple."""
        if len(tensors) != len(self.wires):
            raise WireTypeMismatch(len(tensors), 0, "one tensor per token",
                                   f"{len(tensors)} tensors")
        for tok, (expected, tensor) in enumerate(zip(self.wires, tensors)):
            if (expected is None) is not (tensor is None):
                raise WireTypeMismatch(tok, 0, *(
                    ("a word tensor", "None") if tensor is None
                    else ("None at a coordinator", repr(tensor))))
            if tensor is None:
                continue
            if tensor.semiring is not self.semiring:
                raise SemiringMismatch(
                    f"token {tok} carries {tensor.semiring.name}, "
                    f"expected {self.semiring.name}")
            if tensor.wires != expected:
                for w, (need, got) in enumerate(zip(expected, tensor.wires)):
                    if need != got:
                        raise WireTypeMismatch(tok, w, f"{need}:{need.dim}",
                                               f"{got}:{got.dim}")
                raise WireTypeMismatch(tok, min(len(expected), tensor.order),
                                       f"{len(expected)} wires",
                                       f"{tensor.order} wires")
        # The program's fields from indices on are the network's.
        return object.__new__(TensorNetwork)._fill(tuple([
            tensors[s] if type(s) is int else s for s in self.sources]),
            *self[2:])


def build_network(derivation: Derivation, tensors, spaces: SpaceAssignment,
                  semiring: Semiring = None,
                  mode: str = "explicit") -> TensorNetwork:
    """Label the wires of word tensors by the derivation's links.

    The network is compiled, then bound: :func:`compile_network` fixes
    its structure, plan and result wires once per derivation, coordinator
    positions, mode, space dimensions and carrier, and
    :meth:`NetworkProgram.bind` checks the tensor count and every tensor,
    wire by wire, against its token's type under ``spaces`` on every call;
    mixed semirings are rejected.  ``semiring`` is the carrier, by default
    that of the first tensor that is not None; a non-empty row of None
    tensors alone, with no ``semiring``, raises :class:`BadArgument`, the
    one refusal made here, and an empty list reaches ``bind``'s count
    check.  A None tensor is a coordinator of type ``x.r x x.l``, one copy
    spider per factor of ``x`` at :func:`coordinator_legs`: a node in
    ``explicit`` mode, its legs' wires joined into one class in
    ``closed-form``.  A derivation link between two wires of one None
    token raises :class:`InvalidDerivation`: a coordinator's legs merge
    the conjuncts around it, so reduce such a row with the coordinator
    positions (``reduce(..., coordinators=...)``).  An unknown mode is
    refused by :func:`compile_network`, and an empty row or a network past
    numpy's limits by the planner, before any copy spider is made.
    Refusals of the structure come before those of a tensor.  The classes
    of joined wires are labelled 0, 1, ... in the order of their first
    node wire along the row; then each class that holds none gets the next
    label and an all-ones vector.  Each open wire is the first node wire
    of its class.  In both modes the result wires
    are the wires of the derivation's residual type.  The network shares
    its program's labels, open wires, plan, carrier and result wires.
    """
    tensors = list(tensors)
    if semiring is None:
        semiring = next((t.semiring for t in tensors if t is not None), None)
        if semiring is None and tensors:
            raise BadArgument("every token is a coordinator: pass semiring")
    return compile_network(derivation, frozenset([
        k for k, tensor in enumerate(tensors) if tensor is None]), mode,
        spaces, semiring).bind(tensors)


@lru_cache(maxsize=_PLAN_CACHE_SIZE)
def compile_network(derivation: Derivation, coordinators: frozenset,
                    mode: str, spaces: SpaceAssignment,
                    semiring: Semiring) -> NetworkProgram:
    """The :class:`NetworkProgram` of a derivation whose tokens at
    ``coordinators`` are coordinators, in ``mode`` (an unknown one raises
    :class:`BadArgument`): its wiring, labels, open wires and contraction
    plan.

    The structure is finished and planned before any array is made: each
    copy spider and all-ones vector is recorded by its wires and made
    only once :func:`plan_contraction` has returned, so a structure that
    the planner refuses (past numpy's axis or subscript limit, or with no
    nodes) allocates nothing.

    Programs are cached (a bounded LRU; ``compile_network.cache_info()``
    and ``cache_clear()``) by value: a derivation, a frozenset, a string,
    a :class:`SpaceAssignment` and a carrier, all compared by what they
    hold, so every sentence of one derivation replays one program, and a
    fresh assignment of the same dimensions finds it too.  A structure
    that fails a check raises and is not cached.
    """
    if mode not in MODES:
        raise BadArgument(f"mode must be explicit or closed-form, got "
                          f"{mode!r}")
    flat = derivation.flattened
    # owner: flat position -> its token, for the wires of coordinators;
    # parent: a union-find forest over flat positions, whose classes are
    # the indices.
    # spiders: the wires of each copy spider -> the first token holding it.
    sources, wires, parent = [], [], list(range(len(flat)))
    wire_at, owner, spiders = [None] * len(flat), [None] * len(flat), {}
    for tok, ptype in enumerate(derivation.token_types):
        expected, off = spaces.wires(ptype), derivation.offsets[tok]
        wires.append(None if tok in coordinators else expected)
        if tok not in coordinators:
            wire_at[off:off + len(expected)] = [
                (len(sources), w) for w in range(len(expected))]
            sources.append(tok)
            continue
        x = conjunct_type(ptype)
        if isinstance(x, int):
            raise WireTypeMismatch(tok, x, "a coordinator type x.r x x.l",
                                   ptype)
        owner[off:off + len(ptype)] = [tok] * len(ptype)
        for legs in coordinator_legs(len(x)):
            if mode == "closed-form":
                # Each leg is still alone in its class.
                for q in legs[::2]:
                    parent[off + q] = off + legs[1]
                continue
            spider = tuple([expected[q] for q in legs])
            spiders.setdefault(spider, tok)
            for leg, q in enumerate(legs):
                wire_at[off + q] = (len(sources), leg)
            sources.append(spider)
    for i, j in derivation.links:
        if owner[i] is not None and owner[i] == owner[j]:
            raise InvalidDerivation(
                f"link ({i}, {j}) joins two wires of coordinator token "
                f"{owner[i]}: reduce the row with its coordinator positions")
        parent[_root(parent, j)] = _root(parent, i)
    root = [_root(parent, f) for f in range(len(flat))]
    # A node's wires: its token's, or those of a constant node not yet made.
    node_wires = [wires[s] if type(s) is int else s for s in sources]
    # first: class root -> (label, first node wire), classes in row order
    indices, first = [[None] * len(ws) for ws in node_wires], {}
    for f, wire in enumerate(wire_at):
        if wire is not None:
            first.setdefault(root[f], (len(first), wire))
            indices[wire[0]][wire[1]] = first[root[f]][0]
    for f, s in enumerate(flat):
        if root[f] not in first:
            # Spiders joined only to each other fuse into the all-ones vector.
            first[root[f]] = (len(first), (len(sources), 0))
            indices.append([len(first) - 1])
            sources.append(spaces.wires((s,)))
            node_wires.append(sources[-1])
    indices = tuple([tuple(labs) for labs in indices])
    open_wires = tuple([first[root[r]][1] for r in derivation.residual])
    plan = plan_contraction(indices, tuple([tuple([w.dim for w in ws])
                                            for ws in node_wires]), open_wires)
    # The plan holds: now each constant node is made, a copy spider (three
    # wires) once per signature, an all-ones vector (one wire) per class.
    made = {}
    for spider, tok in spiders.items():
        try:
            arr = _copy_array(spider[0].dim, semiring)
        except (MemoryError, ValueError):  # past numpy's limit
            raise OutOfMemory(f"token {tok}: a copy spider of "
                              f"{spider[0].dim ** 3} cells does not fit in "
                              f"memory") from None
        made[spider] = Tensor(spider, arr, semiring, copy=False)
    return NetworkProgram(tuple([
        s if type(s) is int else made[s] if s in made else frobenius_zeta(
            s[0].base, s[0].dim, s[0].z, semiring) for s in sources]),
        tuple(wires), indices, open_wires, plan, semiring,
        spaces.wires(derivation.residual_type()))


def _root(parent: list, x: int) -> int:
    """The root of ``x`` in a union-find forest, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


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
    ``(nb, m, n)`` result; one that sums nothing, ``k == 1``, is a
    broadcast ``np.multiply`` instead.  Components that share no label
    meet in a batch step of ``(1, m, 1)`` and ``(1, 1, n)``: an outer
    product, with one batch entry and nothing summed.  The result is reshaped to
    ``shape``, one axis per label of the merged component.  One function
    in :func:`plan_contraction` builds every step.
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
    which copies an input or an earlier result of the same size; the copy
    :func:`evaluate` makes of a prep call's diagonal view, of the prep
    call's size; and the boolean product's own temporaries: the rows of
    the right operand that a one-row left operand selects (at most the
    right operand's size), or else float32 copies of both operands.
    """

    prep: tuple
    steps: tuple
    result: int
    perm: tuple
    copy: tuple | None
    max_cells: int


def evaluate(network: TensorNetwork) -> Tensor:
    """Contract the network and return the tensor on its result wires.

    The contraction order is the plan the network carries, made with the
    network.  A plan depends on the network's structure alone (labels,
    node shapes, open wires), never on its words or carrier (the mode
    shows in the labels), so sentences of one derivation replay one plan;
    the plan refuses a network with no nodes, so no such network exists.
    The carrier and the result wires are fixed with the network too (a
    network never mixes carriers), so this only replays the plan.
    Execution only transposes, reshapes and calls the semiring's
    ``matmul`` on two matrices, ``np.einsum`` once per prep call or batch
    step that sums an index (on boolean arrays einsum computes
    or-of-ands), or ``np.multiply`` once per batch step that sums nothing,
    which broadcasts ``(nb, m, 1)`` against ``(nb, 1, n)`` and so
    multiplies each pair of entries once, as :func:`frobenius_mu` does.
    The result owns its entries, or is a read-only view of an input of the
    same size: a prep call that only keeps a diagonal gets numpy's view,
    which is copied.  Scalar results come back as 0-wire tensors.  The
    arithmetic runs with numpy's overflow warnings off, and a result that is
    not finite (a real one past float64, or one that an input entry that is
    not finite reaches) raises :class:`Overflow`, with no
    ``RuntimeWarning``.
    """
    plan, sr = network.plan, network.semiring
    arrays = [t.array for t in network.nodes]
    with np.errstate(over="ignore", invalid="ignore"):
        for n, sub, out in plan.prep:
            arr = np.einsum(arrays[n], sub, out)
            arrays[n] = arr if arr.base is None else arr.copy()
        for s in plan.steps:
            a = arrays[s.a].transpose(s.perm_a).reshape(s.shape_a)
            b = arrays[s.b].transpose(s.perm_b).reshape(s.shape_b)
            arrays[s.b] = None
            if not s.batch:
                merged = sr.matmul(a, b)
            elif s.shape_a[2] == 1:  # nothing summed: one product an entry
                merged = np.multiply(a, b)
            else:
                merged = np.einsum(a, (0, 1, 2), b, (0, 2, 3), (0, 1, 3))
            arrays[s.a] = merged.reshape(s.shape)
    arr = arrays[plan.result].transpose(plan.perm)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise Overflow("the contraction is not finite: float64 overflowed")
    if plan.copy is not None:
        shape, sub = plan.copy
        copied = np.zeros(shape, dtype=sr.dtype)
        np.einsum(copied, sub, tuple(range(arr.ndim)))[...] = arr
        arr = copied
    return Tensor(network.result_wires, arr, sr, copy=False)


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
    component holding that label's lowest-numbered node survives).  Each
    label is a copy spider, and a step needs only its arity: how many
    components still hold it.  A shared label of arity two with no open
    wire is a cup between the pair, so the step sums it out; one of
    higher arity, or open, must still reach its other legs, so the step
    keeps it as a batch axis, an entry-wise product over its values.  A
    step without batch axes is one semiring matrix product, so vectors
    are absorbed before large tensors meet.  The pairs on offer are those of
    components that share a label, except that a label on more than
    ``_PAIRED_HOLDERS`` nodes (a long hyperedge, such as the subject wire
    of a closed-form verb-phrase chain) offers only one pair at a time:
    the component of its lowest-numbered node with that of its next node
    in order, so the edge folds in as a star and planning stays near
    linear in its length.  Pairs wait in a heap, each stamped with the
    step that pushed it; a step stamps both slots it merges, so a pair is
    stale once either slot carries a later stamp.  Components left sharing
    nothing then meet in outer products, batch steps that share nothing,
    in the order of their lowest nodes.  One local function builds every
    step, for the pairs from the heap and for these.  An array past
    numpy's axis limit, or an einsum call past its subscript limit, raises
    :class:`OutOfMemory` before anything runs, and a network with no nodes
    raises :class:`EmptyType`; :class:`TensorNetwork` makes no network
    whose structure this refuses.  Plans are cached by their arguments; a
    structure that fails a check raises and is not cached.
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
    # count: label -> its arity, the number of components holding it; a
    # step lowers it by one for each label the merged pair shares.
    # stars: label -> the position in its holders of the first node not
    # yet merged into its lowest node's component.
    count = {l: len(nodes) for l, nodes in holders.items()}
    stars = {l: 1 for l, c in count.items() if c > _PAIRED_HOLDERS}
    comp = list(range(len(shapes)))  # union-find; a root names a component
    # A heap entry is (cost, first shared label, pair, stamp at its push,
    # shared labels).  Each step stamps both slots it merges, so an entry
    # is current while neither slot of its pair has a later stamp.
    steps, changed, heap = [], [0] * len(shapes), []

    def push(a, b, born):
        if b < a:
            a, b = b, a
        lb = labels[b]
        shared = sorted([l for l in labels[a] if l in lb])
        cost = size[a] * size[b]
        for l in shared:
            d = dim[l]
            cost //= d if l in open_labels or count[l] > 2 else d * d
        heapq.heappush(heap, (cost, shared[0], a, b, born, shared))

    def star_pair(l):
        nodes = holders[l]
        centre = _root(comp, nodes[0])
        while _root(comp, nodes[stars[l]]) == centre:
            stars[l] += 1
        return centre, _root(comp, nodes[stars[l]])

    def merge(ca, cb, shared):
        # The one step builder: slot ca absorbs slot cb.  A shared label is
        # kept as a batch axis while an open wire or a third component
        # holds it, else summed; a pair that shares nothing meets in a
        # batch step of one entry, an outer product.
        la, lb = labels[ca], labels[cb]
        batch, summed, nb, k = [], [], 1, 1
        for l in shared:
            if l in open_labels or count[l] > 2:
                batch.append(l)
                nb *= dim[l]
            else:
                summed.append(l)
                k *= dim[l]
            count[l] -= 1
        free_a = [l for l in la if l not in shared]
        free_b = [l for l in lb if l not in shared]
        m, n = size[ca] // (nb * k), size[cb] // (nb * k)
        labels[ca], labels[cb] = batch + free_a + free_b, None
        wide = bool(batch) or not shared
        steps.append(Step(
            ca, cb, tuple([la.index(l) for l in batch + free_a + summed]),
            tuple([lb.index(l) for l in batch + summed + free_b]),
            (nb, m, k) if wide else (m, k), (nb, k, n) if wide else (k, n),
            tuple([dim[l] for l in labels[ca]]), wide))
        size[ca], comp[cb] = nb * m * n, ca
        changed[ca] = changed[cb] = len(steps)

    for l, nodes in holders.items():
        for pair in ([star_pair(l)] if l in stars
                     else combinations(nodes, 2)):
            push(*pair, 0)
    while heap:
        _, first, ca, cb, born, shared = heapq.heappop(heap)
        if changed[ca] > born or changed[cb] > born:
            continue
        if _root(comp, holders[first][0]) != ca:
            ca, cb = cb, ca
        merge(ca, cb, shared)
        # Only the pairs with the survivor change; a star's pair without it
        # is still current.  The components holding any other label are
        # the roots of its holders, at most _PAIRED_HOLDERS of them; the
        # walk of _root is inlined, as a call per holder made cold planning
        # about 5% slower in explicit mode.
        partners = set()
        for l in labels[ca]:
            if count[l] < 2:
                continue
            if l in stars:
                pair = star_pair(l)
                if ca in pair:
                    partners.update(pair)
            else:
                for h in holders[l]:
                    while comp[h] != h:
                        comp[h] = h = comp[comp[h]]
                    partners.add(h)
        partners.discard(ca)
        for other in partners:
            push(ca, other, len(steps))

    result, *rest = [c for c in range(len(shapes)) if comp[c] == c]
    for c in rest:
        merge(result, c, ())
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
    None tensors as the coordinators and contract the network in ``mode``:
    :func:`evaluate`'s tensor, as it is, on the wires of the derivation's
    residual type.  Every call reduces and checks every tensor; the
    network's wiring, plan and result wires come from the derivation's
    cached program, and :func:`evaluate` runs once.  A result that is not
    finite (a real one past float64) raises :class:`Overflow`, from
    :func:`evaluate`."""
    derivation = reduce(types, target, coordinators=[
        k for k, tensor in enumerate(tensors) if tensor is None])
    if derivation is None:
        raise refusal()
    return evaluate(build_network(derivation, tensors, spaces, semiring,
                                  mode))


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

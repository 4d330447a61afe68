"""Pregroup types and contraction-only reduction.

Types are tuples of simple types, each a named tuple ``(base, z)`` of a
base symbol and an integer adjoint order ``z`` (``n.l`` has z = -1,
``n.r.r`` has z = +2, adjoints cancel: ``n.l.r`` is plain ``n``), so
hashing, equality and pickling are those of ``tuple``.  A sequence of word
types is grammatical for a target when some set of contraction links —
pairwise disjoint, non-crossing, each pairing ``(b, z)`` with
``(b, z+1)`` and enclosing no surviving wire — leaves exactly the target.

Reduction walks the flattened row of n simple types left to right with a
stack of open links, trying at each position the moves close the
innermost open link, open a new one, survive as part of the target.  A
row reduces to a target exactly when the row followed by the target's
right adjoint contracts to the unit (the adjoint law of pregroups), so
one bitset table built right to left, of which spans of the row and the
adjoint contract to the unit, says which moves can still be completed,
and the walk enters no dead state: building it takes O(N**2) operations
on N-bit integers for a row and target of N simple types together, cubic
in N like the interval dynamic programs for pregroup parsing (Preller
2007, "Linear processing with pregroups"; Moroz 2009), and
:func:`reduce` then never backtracks.

Surface syntax for type strings: base symbols are identifiers, adjoint
marks are ``.l`` / ``.r`` suffixes applied left to right and stackable,
simple types are separated by whitespace.

>>> print(parse_type("n.r s n.l"))
n.r s n.l
>>> parse_type("n.l.r") == parse_type("n")
True
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, islice
from typing import NamedTuple

from .errors import (BadArgument, BadIndex, EmptyType, InvalidDerivation,
                     TypeSyntaxError, UnknownBaseSymbol)


class SimpleType(NamedTuple):
    """A base symbol with an iterated-adjoint order."""

    base: str
    z: int = 0

    @property
    def l(self) -> "SimpleType":
        """Left adjoint; cancels with :attr:`r`."""
        return SimpleType(self.base, self.z - 1)

    @property
    def r(self) -> "SimpleType":
        """Right adjoint."""
        return SimpleType(self.base, self.z + 1)

    def __str__(self):
        marks = ".l" * -self.z if self.z < 0 else ".r" * self.z
        return f"{self.base}{marks}"


class PregroupType(tuple):
    """An ordered product of simple types; the empty product is the unit."""

    __slots__ = ()

    def __getitem__(self, key):
        got = tuple.__getitem__(self, key)
        return PregroupType(got) if isinstance(key, slice) else got

    def __matmul__(self, other: "PregroupType") -> "PregroupType":
        return PregroupType(self + other)

    def adjoint_left(self) -> "PregroupType":
        """Left adjoint; reverses the factor order."""
        return PregroupType(s.l for s in reversed(self))

    def adjoint_right(self) -> "PregroupType":
        """Right adjoint; reverses the factor order."""
        return PregroupType(s.r for s in reversed(self))

    def __str__(self):
        return " ".join(map(str, self)) if self else "1"

    def __repr__(self):
        return f"PregroupType({tuple.__repr__(self)})"


_TOKEN = re.compile(r"\S+")


def parse_type(text: str, bases=None) -> PregroupType:
    """Parse the surface syntax into a :class:`PregroupType`.

    ``bases``, when given, is the set of declared base symbols; anything
    else raises :class:`UnknownBaseSymbol`.  Malformed tokens raise
    :class:`TypeSyntaxError`.  Tokens are checked left to right, so the
    error, with its character position, is that of the first bad token.
    """
    simples = []
    for token in _TOKEN.finditer(text):
        base, *marks = token.group().split(".")
        r, l = marks.count("r"), marks.count("l")
        if r + l != len(marks) or not (base.isascii() and base.isidentifier()):
            raise TypeSyntaxError(f"bad simple type {token.group()!r}",
                                  token.start())
        if bases is not None and base not in bases:
            raise UnknownBaseSymbol(base, token.start())
        simples.append(SimpleType(base, r - l))
    return PregroupType(simples)


def coordinator_type(x: PregroupType) -> PregroupType:
    """The conjunction type for conjuncts of type ``x``: ``x.r  x  x.l``.

    >>> print(coordinator_type(parse_type("n.r s")))
    s.r n.r.r n.r s s.l n
    """
    if not x:
        raise EmptyType("coordinator of the unit type")
    return x.adjoint_right() @ x @ x.adjoint_left()


@lru_cache(maxsize=None)
def coordinator_legs(k: int) -> tuple[tuple[int, int, int], ...]:
    """The legs in ``x.r x x.l`` of the copy spider of each factor ``p`` of
    a ``k``-factor ``x``: its mirrored place in the ``x.r`` block, its own
    place in ``x`` and its mirrored place in the ``x.l`` block.

    >>> coordinator_legs(2)
    ((1, 2, 5), (0, 3, 4))
    """
    return tuple((k - 1 - p, k + p, 3 * k - 1 - p) for p in range(k))


@lru_cache(maxsize=None)
def conjunct_type(ptype: PregroupType) -> PregroupType | int:
    """``x`` when ``ptype`` is ``coordinator_type(x)``, else the index of
    its first wire out of place (0 when its length is no multiple of 3).

    >>> conjunct_type(parse_type("s.r n.r.r n.r s s.l n.l"))
    5
    """
    k, extra = divmod(len(ptype), 3)
    if extra or not k:
        return 0
    x = ptype[k:2 * k]
    return next((i for i, (got, want) in enumerate(
        zip(ptype, coordinator_type(x))) if got != want), x)


class Derivation:
    """A witness of grammaticality: contraction links over a token row.

    ``links`` pair flattened simple-type indices ``(i, j)``, ``i < j``.
    The constructor checks them with :meth:`validate` and lays the row out
    once, in three attributes beside the two fields: ``flattened``, the
    row's simple types in order; ``offsets``, the flattened index of each
    token's first wire; and ``residual``, the unlinked indices, left to
    right.  No attribute can be reassigned.  Equality (with another
    derivation only) and hashing read the two fields only.
    """

    def __init__(self, token_types, links):
        row, links = tuple(token_types), frozenset(links)
        # Written to the instance dict: __setattr__ refuses every name.
        vars(self).update(token_types=row, links=links, _key=(row, links),
                          flattened=tuple([s for t in row for s in t]),
                          offsets=tuple(accumulate([0, *map(len, row)]))[:-1])
        vars(self)["residual"] = self.validate()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Derivation.{name}")

    def __eq__(self, other):
        return type(other) is Derivation and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Derivation(token_types={!r}, links={!r})".format(*self._key)

    def token_wire(self, flat_index: int) -> tuple[int, int]:
        """Map a flattened index to ``(token, wire-within-token)``."""
        if not 0 <= flat_index < len(self.flattened):
            raise BadIndex(flat_index)
        tok = bisect_right(self.offsets, flat_index) - 1
        return tok, flat_index - self.offsets[tok]

    def residual_type(self) -> PregroupType:
        return PregroupType([self.flattened[i] for i in self.residual])

    def validate(self) -> tuple[int, ...]:
        """Check every structural invariant; raise :class:`InvalidDerivation`.

        One left-to-right pass with a stack of open link ends: a link must
        close the innermost open one (else two links cross), and a
        surviving wire must have no open link around it.  Returns the
        positions the pass leaves without a partner, left to right.
        """
        flat = self.flattened
        n = len(flat)
        partner = [None] * n
        for (i, j) in self.links:
            if not (0 <= i < j < n):
                raise InvalidDerivation(f"link ({i}, {j}) out of range")
            if partner[i] is not None or partner[j] is not None:
                raise InvalidDerivation(f"link ({i}, {j}) reuses an index")
            partner[i], partner[j] = j, i
            a, b = flat[i], flat[j]
            if a.base != b.base or b.z != a.z + 1:
                raise InvalidDerivation(
                    f"link ({i}, {j}) pairs {a} with {b}")
        opened, residual = [], []
        for p, q in enumerate(partner):
            if q is None:
                if opened:
                    raise InvalidDerivation(
                        f"surviving wire {p} is trapped under link "
                        f"({opened[-1]}, {partner[opened[-1]]})")
                residual.append(p)
            elif q > p:
                opened.append(p)
            else:
                k = opened.pop()
                if k != q:
                    raise InvalidDerivation(
                        f"links ({q}, {p}) and ({k}, {partner[k]}) cross")
        return tuple(residual)


def _derivations(tokens, target, coordinators):
    """Yield link lists in the walk order of the moves close, open, survive.

    A walk state is (position, stack of open link ends, target progress).
    At each position the moves are tried in the order: close the top of
    the stack, open a new link, survive as residual (stack must be empty).
    That order makes the first yield the canonical derivation.

    One bitset table, built right to left over the row followed by the
    target's right adjoint, says which states can still be completed, so
    the walk enters no other state and never backtracks: ``unit[i]`` holds
    the ends ``j`` for which ``flat[i:j]`` contracts to the unit.  The
    adjoint is one more token whose wires never link to each other, so
    ``flat[i:n]`` reduces to ``target[t:]`` with survivors at top level
    only exactly when ``flat[i:n]`` followed by the adjoint's first
    ``m - t`` wires contracts to the unit: ``tail[t]`` holds those starts.
    Each open end keeps the mask of positions where closing it still
    leaves a completable state, derived from the mask of the end below it.
    No wire of a token at a position in ``coordinators`` closes on another
    wire of that token: its closer masks leave them out before the table
    is built.
    """
    n, m = sum(map(len, tokens)), len(target)
    tokens = (*tokens, [(b, z + 1) for b, z in reversed(target)])
    flat = tuple(s for t in tokens for s in t)
    at = {}
    for p, s in enumerate(flat):
        at[s] = at.get(s, 0) | 1 << p
    closers = [at.get((b, z + 1), 0) for b, z in flat]
    offsets = [0, *accumulate(map(len, tokens))]
    for c in (*coordinators, len(tokens) - 1):
        lo, hi = offsets[c], offsets[c + 1]
        own = (1 << hi) - (1 << lo)
        for p in range(lo, hi):
            closers[p] &= ~own
    unit = [0] * (n + m) + [1 << n + m]
    for i in range(n + m - 1, -1, -1):
        u = 1 << i
        ends = closers[i] & unit[i + 1]
        while ends:
            k = (ends & -ends).bit_length()  # one past a closer of i
            u |= unit[k]
            # A closer whose successor is already covered adds nothing:
            # unit spans compose.
            ends &= ~(u >> 1)
        unit[i] = u
    tail = [sum(1 << i for i in range(n + 1) if unit[i] >> n + m - t & 1)
            for t in range(m + 1)]
    if not tail[0] & 1:
        return
    # A frame is (position, open ends, progress, links, next move); open
    # ends and links are linked lists, so a frame costs O(1) to make.
    frames = [(0, None, 0, None, 0)]
    while frames:
        p, opened, t, links, move = frames.pop()
        if p == n:
            out = []
            while links:
                pair, links = links
                out.append(pair)
            yield out
            continue
        child = None
        while child is None and move < 3:
            if move == 0:
                if opened and opened[1] >> p & 1:
                    child = (p + 1, opened[2], t, ((opened[0], p), links), 0)
            elif move == 1:
                ends = closers[p] & unit[p + 1]
                if opened is None:
                    ends &= tail[t] >> 1
                else:
                    # An end is good when closing there leaves the open
                    # end below a good end of its own after a unit span.
                    keep, below = 0, opened[1]
                    while ends:
                        low = ends & -ends
                        if unit[low.bit_length()] & below:
                            keep |= low
                        ends ^= low
                    ends = keep
                if ends:
                    child = (p + 1, (p, ends, opened), t, links, 0)
            elif (opened is None and t < m and flat[p] == target[t]
                  and tail[t + 1] >> (p + 1) & 1):
                child = (p + 1, None, t + 1, links, 0)
            move += 1
        if child is not None:
            frames.append((p, opened, t, links, move))
            frames.append(child)


def reduce(tokens, target: PregroupType, *, coordinators=()):
    """The canonical derivation reducing ``tokens`` to ``target``, or None.

    The canonical derivation is the one the walk over the flattened row
    makes when it takes, at each position, the first move that can still
    be completed, in the order close the innermost open link, open a new
    link, survive.  That realises the leftmost-innermost linking policy.
    ``coordinators`` holds the positions of the row's coordinator tokens:
    no link joins two wires of one of them, because a coordinator's wires
    are the legs of copy spiders that merge the conjuncts around it.
    ``None`` means ungrammatical.  It is the first element of
    :func:`enumerate_reductions`; for a row and target of N simple types
    together it costs O(N**2) operations on N-bit integers, with no
    recursion, so any row length that fits in memory reduces.

    >>> ts = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
    >>> sorted(reduce(ts, parse_type("s")).links)
    [(0, 1), (3, 4)]
    """
    first = enumerate_reductions(tokens, target, 1, coordinators=coordinators)
    return first[0] if first else None


def enumerate_reductions(tokens, target: PregroupType, cap: int, *,
                         coordinators=()):
    """Up to ``cap`` derivations, in the walk order of :func:`reduce`, with
    the same ``coordinators``.

    A depth-first search over the walk's moves, tried in the order close,
    open, survive, that enters only states that can still be completed:
    the first element, when any exist, is exactly the result of
    :func:`reduce`, and each further derivation costs at most O(n) moves
    for n simple types.  On small rows the order is lexicographic on the
    sorted link lists; on longer ones it need not be (a five-conjunct
    verb-phrase chain is a case).  ``cap`` must be a Python ``int`` of at
    least 1, of any size, and each coordinator position one in
    ``range(len(tokens))``, not a ``bool``; anything else raises
    :class:`BadArgument`.
    """
    if type(cap) is not int or cap < 1:
        raise BadArgument(f"cap must be a Python int >= 1, got {cap!r}")
    if not tokens:
        raise EmptyType("cannot reduce an empty token sequence")
    coordinators = tuple(coordinators)
    for c in coordinators:
        if type(c) is not int or not 0 <= c < len(tokens):
            raise BadArgument(f"a coordinator position must be a Python int "
                              f"in range({len(tokens)}), got {c!r}")
    # islice takes no stop past sys.maxsize, and no list is that long.
    return [Derivation(tokens, link_list) for link_list in islice(
        _derivations(tokens, target, coordinators), min(cap, sys.maxsize))]

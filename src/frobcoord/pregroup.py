"""Pregroup types and contraction-only reduction.

Types are sequences of simple types, each a base symbol with an integer
adjoint order ``z`` (``n.l`` has z = -1, ``n.r.r`` has z = +2, adjoints
cancel: ``n.l.r`` is plain ``n``).  A sequence of word types is
grammatical for a target when some set of contraction links — pairwise
disjoint, non-crossing, each pairing ``(b, z)`` with ``(b, z+1)`` and
enclosing no surviving wire — leaves exactly the target.

Reduction walks the flattened row of n simple types left to right with a
stack of open links, trying at each position the moves close the
innermost open link, open a new one, survive as part of the target.  Two
bitset tables built right to left (which spans contract to the unit, and
which suffixes reduce to which target suffixes) say which moves can still
be completed, so the walk enters no dead state: building them takes
O(n**2) operations on n-bit integers, cubic in n like the interval
dynamic programs for pregroup parsing (Preller 2007, "Linear processing
with pregroups"; Moroz 2009), and :func:`reduce` then never backtracks.

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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .errors import (EmptyType, InvalidDerivation, TypeSyntaxError,
                     UnknownBaseSymbol)


@dataclass(frozen=True)
class SimpleType:
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


@dataclass(frozen=True)
class PregroupType:
    """An ordered product of simple types; the empty product is the unit."""

    simples: tuple[SimpleType, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "simples", tuple(self.simples))

    def __len__(self):
        return len(self.simples)

    def __iter__(self):
        return iter(self.simples)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return PregroupType(self.simples[key])
        return self.simples[key]

    def __bool__(self):
        return bool(self.simples)

    def __matmul__(self, other: "PregroupType") -> "PregroupType":
        return PregroupType(self.simples + other.simples)

    def adjoint_left(self) -> "PregroupType":
        """Left adjoint; reverses the factor order."""
        return PregroupType(tuple(s.l for s in reversed(self.simples)))

    def adjoint_right(self) -> "PregroupType":
        """Right adjoint; reverses the factor order."""
        return PregroupType(tuple(s.r for s in reversed(self.simples)))

    def __str__(self):
        return " ".join(str(s) for s in self.simples) if self.simples else "1"


_SIMPLE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)((?:\.[lr])*)$")


def parse_type(text: str, bases=None) -> PregroupType:
    """Parse the surface syntax into a :class:`PregroupType`.

    ``bases``, when given, is the set of declared base symbols; anything
    else raises :class:`UnknownBaseSymbol`.  Malformed tokens raise
    :class:`TypeSyntaxError` carrying the character position.
    """
    simples = []
    for token in text.split():
        base, *marks = token.split(".")
        r, l = marks.count("r"), marks.count("l")
        if not (r + l == len(marks) and base.isascii() and base.isidentifier()
                and (bases is None or base in bases)):
            break
        simples.append(SimpleType(base, r - l))
    else:
        return PregroupType(tuple(simples))
    # Only a malformed or undeclared token gets here; this scan reports
    # its position.
    simples = []
    for token in re.finditer(r"\S+", text):
        m = _SIMPLE.match(token.group())
        if m is None or m.end() != len(token.group()):
            raise TypeSyntaxError(f"bad simple type {token.group()!r}",
                                  token.start())
        base, marks = m.group(1), m.group(2)
        if bases is not None and base not in bases:
            raise UnknownBaseSymbol(base, token.start())
        z = marks.count(".r") - marks.count(".l")
        simples.append(SimpleType(base, z))
    return PregroupType(tuple(simples))


def coordinator_type(x: PregroupType) -> PregroupType:
    """The conjunction type for conjuncts of type ``x``: ``x.r  x  x.l``.

    >>> print(coordinator_type(parse_type("n.r s")))
    s.r n.r.r n.r s s.l n
    """
    if not x:
        raise EmptyType("coordinator of the unit type")
    return x.adjoint_right() @ x @ x.adjoint_left()


@dataclass(frozen=True)
class Derivation:
    """A witness of grammaticality: contraction links over a token row.

    ``links`` pair flattened simple-type indices ``(i, j)``, ``i < j``;
    ``residual`` lists the surviving indices left to right.
    """

    token_types: tuple[PregroupType, ...]
    links: frozenset[tuple[int, int]]
    residual: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "token_types", tuple(self.token_types))
        object.__setattr__(self, "links", frozenset(self.links))
        object.__setattr__(self, "residual", tuple(self.residual))
        self.validate()

    @cached_property
    def flattened(self) -> tuple[SimpleType, ...]:
        return tuple(s for t in self.token_types for s in t)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for t in self.token_types:
            out.append(acc)
            acc += len(t)
        return tuple(out)

    def token_wire(self, flat_index: int) -> tuple[int, int]:
        """Map a flattened index to ``(token, wire-within-token)``."""
        for tok in range(len(self.token_types) - 1, -1, -1):
            if self.offsets[tok] <= flat_index:
                return tok, flat_index - self.offsets[tok]
        raise IndexError(flat_index)

    def residual_type(self) -> PregroupType:
        flat = self.flattened
        return PregroupType(tuple(flat[i] for i in self.residual))

    def validate(self):
        """Check every structural invariant; raise :class:`InvalidDerivation`.

        One left-to-right pass with a stack of open link ends: a link must
        close the innermost open one (else two links cross), and a
        surviving wire must have no open link around it.
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
        expected = tuple(p for p in range(n) if partner[p] is None)
        if self.residual != expected:
            raise InvalidDerivation(
                f"residual {self.residual} != unlinked indices {expected}")
        opened = []
        for p, q in enumerate(partner):
            if q is None:
                if opened:
                    raise InvalidDerivation(
                        f"surviving wire {p} is trapped under link "
                        f"({opened[-1]}, {partner[opened[-1]]})")
            elif q > p:
                opened.append(p)
            else:
                k = opened.pop()
                if k != q:
                    raise InvalidDerivation(
                        f"links ({q}, {p}) and ({k}, {partner[k]}) cross")


def _derivations(flat, target):
    """Yield link lists in the walk order of the moves close, open, survive.

    A walk state is (position, stack of open link ends, target progress).
    At each position the moves are tried in the order: close the top of
    the stack, open a new link, survive as residual (stack must be empty).
    That order makes the first yield the canonical derivation.

    Two bitset tables, built right to left, say which states can still be
    completed, so the walk enters no other state and never backtracks:
    ``unit[i]`` holds the ends ``j`` for which ``flat[i:j]`` contracts to
    the unit, and ``tail[t]`` the starts ``i`` for which ``flat[i:]``
    reduces to ``target[t:]`` with survivors at top level only.  Each
    open end keeps the mask of positions where closing it still leaves a
    completable state, derived from the mask of the end below it.
    """
    n, sig = len(flat), [(s.base, s.z) for s in flat]
    goal = [(s.base, s.z) for s in target]
    m = len(goal)
    at, wanted = {}, {}
    for p, s in enumerate(sig):
        at[s] = at.get(s, 0) | 1 << p
    for t, s in enumerate(goal):
        wanted[s] = wanted.get(s, 0) | 1 << t
    closers = [at.get((b, z + 1), 0) for b, z in sig]
    unit = [0] * n + [1 << n]
    reach = [0] * n + [1 << m]  # reach[i]: the t for which i is in tail[t]
    for i in range(n - 1, -1, -1):
        u = 1 << i
        r = wanted.get(sig[i], 0) & (reach[i + 1] >> 1)
        ends = closers[i] & unit[i + 1]
        while ends:
            k = (ends & -ends).bit_length()  # one past a closer of i
            u |= unit[k]
            r |= reach[k]
            # A closer whose successor is already covered adds nothing:
            # unit spans and the reductions after them compose.
            ends &= ~(u >> 1)
        unit[i], reach[i] = u, r
    tail = [sum(1 << i for i, r in enumerate(reach) if r >> t & 1)
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
            yield tuple(sorted(out))
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
            elif (opened is None and t < m and sig[p] == goal[t]
                  and tail[t + 1] >> (p + 1) & 1):
                child = (p + 1, None, t + 1, links, 0)
            move += 1
        if child is not None:
            frames.append((p, opened, t, links, move))
            frames.append(child)


def _as_derivation(token_types, link_list) -> Derivation:
    linked = {i for pair in link_list for i in pair}
    n = sum(len(t) for t in token_types)
    residual = tuple(p for p in range(n) if p not in linked)
    return Derivation(tuple(token_types), frozenset(link_list), residual)


def reduce(tokens, target: PregroupType):
    """The canonical derivation reducing ``tokens`` to ``target``, or None.

    The canonical derivation is the one the walk over the flattened row
    makes when it takes, at each position, the first move that can still
    be completed, in the order close the innermost open link, open a new
    link, survive.  That realises the leftmost-innermost linking policy.
    ``None`` means ungrammatical.  For n simple types this costs O(n**2)
    operations on n-bit integers, with no recursion, so any row length
    that fits in memory reduces.

    >>> ts = [parse_type("n"), parse_type("n.r s n.l"), parse_type("n")]
    >>> sorted(reduce(ts, parse_type("s")).links)
    [(0, 1), (3, 4)]
    """
    if not tokens:
        raise EmptyType("cannot reduce an empty token sequence")
    flat = tuple(s for t in tokens for s in t)
    for link_list in _derivations(flat, target):
        return _as_derivation(tokens, link_list)
    return None


def enumerate_reductions(tokens, target: PregroupType, cap: int):
    """Up to ``cap`` derivations, in the walk order of :func:`reduce`.

    A depth-first search over the walk's moves, tried in the order close,
    open, survive, that enters only states that can still be completed:
    the first element, when any exist, is exactly the result of
    :func:`reduce`, and each further derivation costs at most O(n) moves
    for n simple types.  On small rows the order is lexicographic on the
    sorted link lists; on longer ones it need not be (a five-conjunct
    verb-phrase chain is a case).
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if not tokens:
        raise EmptyType("cannot reduce an empty token sequence")
    flat = tuple(s for t in tokens for s in t)
    return [_as_derivation(tokens, link_list)
            for link_list in islice(_derivations(flat, target), cap)]

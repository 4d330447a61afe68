"""Lexicon files: typed word tensors, loading, saving and generation.

The file format is line-oriented UTF-8 text.  Lines starting with ``#``
are directives, blank lines are ignored, everything else is an entry
``word : type = spec``::

    #semiring real
    #type n 4
    #type s 3
    john : n = [0.1, 0.2, 0.0, 1.0]
    sleeps : n.r s = @random(42)
    and : s.r s s.l = @conj
    is : n.r n = @identity

Tensor specs are a bracketed literal (row-major, length must equal the
product of the wire dimensions, finite numbers only, and only 0 or 1 for
the boolean semiring), ``@conj`` (the coordinator for a type shaped
``x.r x x.l``; evaluation in either mode works from the copy spiders of
``x``'s factors, so the entry keeps ``x`` and builds the dense tensor only
on first access to its ``tensor``, which no command makes),
``@random(seed)`` (a splitmix64 stream with a seed below 2**64, mapped to
[0, 1) and thresholded at 0.5 for the boolean semiring; the streams of all
``@random`` entries are computed together over ``np.uint64`` arrays into
one read-only buffer, bit for bit equal to :class:`SplitMix64`) or
``@identity`` (square order-2 types only).  Dimensions and seeds are
ASCII digits.  Real entries are saved with 17 significant digits, so
save/load round-trips exactly.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from .coordination import coordinator_tensor
from .errors import (DimMismatch, ParseError, UndeclaredSymbol,
                     UnknownBaseSymbol)
from .evaluator import SpaceAssignment
from .pregroup import PregroupType, parse_type
from .semiring import BY_NAME, REAL, Semiring
from .tensor import Tensor

_MASK = (1 << 64) - 1
_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
# Shift counts are 0-d uint64 arrays: numpy takes longer to resolve a
# shift of a uint64 array by a Python int or a numpy scalar.
_MIX = ((np.array(30, np.uint64), np.uint64(0xBF58476D1CE4E5B9)),
        (np.array(27, np.uint64), np.uint64(0x94D049BB133111EB)))
_SHIFT_31, _SHIFT_11 = np.array(31, np.uint64), np.array(11, np.uint64)
_TOP_BIT = np.uint64(1 << 63)
_BLOCK = 1 << 15  # words mixed at a time: two blocks stay in cache


class SplitMix64:
    """Deterministic 64-bit stream; identical on every platform."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_int(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_unit(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self.next_int() >> 11) * 2.0 ** -53


def _mix_into(z, out, semiring: Semiring):
    """Finish splitmix64 on the states ``z`` (clobbered), mapping each
    output through ``next_unit`` and ``semiring.from_unit`` into ``out``."""
    tmp = np.empty_like(z)
    for shift, mult in _MIX:
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mult
    z ^= np.right_shift(z, _SHIFT_31, out=tmp)
    if semiring is REAL:
        np.multiply(np.right_shift(z, _SHIFT_11, out=z), 2.0 ** -53, out=out)
    else:
        # A unit is at least 0.5 exactly when the word's top bit is set.
        np.greater_equal(z, _TOP_BIT, out=out)


def _random_arrays(seeds, shapes, semiring: Semiring):
    """For each seed and shape, outputs 1 to ``prod(shape)`` of
    ``SplitMix64(seed)``, each mapped through ``next_unit`` and
    ``semiring.from_unit``: read-only views, in ``shape``, of one buffer.

    SplitMix64 is counter-based: its c-th state is ``seed + c * gamma``
    mod 2**64.  The streams lie end to end in the buffer, so buffer cell
    ``i`` of a stream that starts at cell ``start`` has the state
    ``(seed - start * gamma) + (i + 1) * gamma``: a counter range plus one
    base per stream.  The buffer is mixed in place over ``np.uint64``,
    whose arithmetic wraps, one cache-sized block of cells at a time, so
    a block packs consecutive streams and a long stream spans blocks.
    """
    sizes = [math.prod(shape) for shape in shapes]
    out = np.empty(sum(sizes), dtype=semiring.dtype)
    blocks, room, start = [], 0, 0  # per block: (stream bases, cells)
    for seed, size in zip(seeds, sizes):
        base = (seed - start * _GAMMA_INT) & _MASK
        start += size
        while size:
            if not room:
                bases, parts, room = [], [], _BLOCK
                blocks.append((bases, parts))
            part = min(size, room)
            bases.append(base)
            parts.append(part)
            size -= part
            room -= part
    for lo, (bases, parts) in zip(range(0, start, _BLOCK), blocks):
        z = np.arange(lo + 1, lo + sum(parts) + 1, dtype=np.uint64)
        z *= _GAMMA
        z += np.repeat(np.array(bases, dtype=np.uint64), parts)
        _mix_into(z, out[lo:lo + len(z)], semiring)
    out.setflags(write=False)
    arrays, start = [], 0
    for shape, size in zip(shapes, sizes):
        arrays.append(out[start:start + size].reshape(shape))
        start += size
    return arrays


class LexiconEntry:
    """A word, its type, its tensor spec and its tensor.

    ``spec`` is ``@conj``, ``@random(n)`` or ``@identity``, and None for
    literal data.  A ``@conj`` entry is made with ``tensor=None`` and a
    ``build`` function; its ``tensor`` is built on first access and kept.
    """

    __slots__ = ("word", "type", "spec", "_tensor", "_build")

    def __init__(self, word: str, type: PregroupType, tensor: Tensor | None,
                 spec: str | None, build=None):
        self.word, self.type, self.spec = word, type, spec
        self._tensor, self._build = tensor, build

    @property
    def tensor(self) -> Tensor:
        if self._tensor is None:
            self._tensor = self._build()
        return self._tensor

    @property
    def is_coordinator(self) -> bool:
        return self.spec == "@conj"


class Lexicon:
    """An immutable word -> entry map plus its spaces and semiring."""

    def __init__(self, spaces: SpaceAssignment, semiring: Semiring, entries):
        self.spaces = spaces
        self.semiring = semiring
        self.entries = dict(entries)

    def __getitem__(self, word: str) -> LexiconEntry:
        return self.entries[word]

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __iter__(self):
        return iter(self.entries.values())

    def words(self):
        return list(self.entries)


# Matched against stripped lines.
_ENTRY = re.compile(r"(\S+)\s*:\s*(.*?)\s*=\s*(.*)")
_RANDOM = re.compile(r"^@random\(([0-9]+)\)$")


def _conj_shape(ptype: PregroupType) -> PregroupType | None:
    """The conjunct type when ``ptype`` has the shape ``x.r x x.l``.

    Factor ``p`` of the middle block ``x`` must recur one adjoint up at
    the mirrored position ``k-1-p`` and one down at ``3k-1-p``.
    """
    k, extra = divmod(len(ptype), 3)
    if extra:
        return None
    s = ptype.simples
    for p in range(k):
        mid, r, l = s[k + p], s[k - 1 - p], s[3 * k - 1 - p]
        if not (r.base == l.base == mid.base and r.z - 1 == mid.z == l.z + 1):
            return None
    return ptype[k:2 * k]


def _literal_value_ok(value, semiring: Semiring) -> bool:
    """Real literals take finite numbers; boolean literals take 0 and 1."""
    if semiring is REAL:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return value in (0, 1)


def _too_big(word: str, cells: int, line: int) -> ParseError:
    return ParseError(f"entry {word!r}: its {cells} cells do not fit in "
                      f"memory", line)


def _realize(word, ptype, wires, size, spec, spaces, semiring, line):
    if spec.startswith("["):
        try:
            data = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad literal for {word!r}: {exc.msg}", line)
        if not isinstance(data, list) or len(data) != size:
            raise DimMismatch(
                f"entry {word!r}: literal of length "
                f"{len(data) if isinstance(data, list) else '?'} "
                f"does not fill {size} cells")
        for value in data:
            if not _literal_value_ok(value, semiring):
                raise ParseError(
                    f"entry {word!r}: literal value {value!r} is not "
                    f"{'a finite number' if semiring is REAL else '0 or 1'}",
                    line)
        return LexiconEntry(word, ptype, Tensor(wires, data, semiring), None)
    if spec == "@conj":
        x = _conj_shape(ptype)
        if x is None:
            raise ParseError(
                f"entry {word!r}: @conj needs a type shaped x.r x x.l", line)

        def build():
            try:
                return coordinator_tensor(x, spaces, semiring)
            except MemoryError:
                raise _too_big(word, size, line) from None
        return LexiconEntry(word, ptype, None, spec, build)
    if spec == "@identity":
        if len(ptype) != 2 or wires[0].dim != wires[1].dim:
            raise DimMismatch(
                f"entry {word!r}: @identity needs a square order-2 type")
        return LexiconEntry(word, ptype, Tensor(
            wires, np.eye(wires[0].dim, dtype=semiring.dtype), semiring,
            copy=False), spec)
    raise ParseError(f"entry {word!r}: unrecognised tensor spec {spec!r}",
                     line)


def parse_lexicon(text: str, name: str = "<string>") -> Lexicon:
    """Parse lexicon text; see the module docstring for the format."""
    dims: dict[str, int] = {}
    semiring = REAL
    raw_entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["semiring"]:
                if len(parts) != 2 or parts[1] not in BY_NAME:
                    raise ParseError(f"bad semiring directive {line!r}",
                                     lineno)
                semiring = BY_NAME[parts[1]]
            elif parts[:1] == ["type"]:
                if (len(parts) != 3 or not parts[2].isascii()
                        or not parts[2].isdigit()):
                    raise ParseError(f"bad type directive {line!r}", lineno)
                if parts[1] in dims:
                    raise ParseError(f"duplicate type {parts[1]!r}", lineno)
                dims[parts[1]] = int(parts[2])
            else:
                raise ParseError(f"unknown directive {line!r}", lineno)
            continue
        m = _ENTRY.match(line)
        if m is None:
            raise ParseError(f"expected 'word : type = spec', got {line!r}",
                             lineno)
        raw_entries.append((lineno, *m.groups()))

    spaces = SpaceAssignment(dims)
    bases = set(dims)
    typed = {}  # type text -> (type, wires, shape); each text parsed once
    entries, randoms, seeds, shapes = {}, [], [], []
    for lineno, word, type_text, spec in raw_entries:
        if word in entries:
            raise ParseError(f"duplicate entry for {word!r}", lineno)
        if type_text not in typed:
            try:
                ptype = parse_type(type_text, bases=bases)
            except UnknownBaseSymbol as exc:
                raise UndeclaredSymbol(word, exc.base, lineno) from None
            if not ptype:
                raise ParseError(f"entry {word!r} has the empty type", lineno)
            wires = spaces.wires(ptype)
            typed[type_text] = ptype, wires, [w.dim for w in wires]
        ptype, wires, shape = typed[type_text]
        m = _RANDOM.match(spec)
        if m:
            digits = m.group(1).lstrip("0") or "0"
            seed = int(digits) if len(digits) <= 20 else _MASK + 1
            if seed > _MASK:
                raise ParseError(f"entry {word!r}: @random seed is not below "
                                 f"2**64", lineno)
            randoms.append((lineno, word, ptype, wires, spec))
            seeds.append(seed)
            shapes.append(shape)
            entries[word] = None  # keeps the file order; realised below
            continue
        cells = math.prod(shape)
        try:
            entries[word] = _realize(word, ptype, wires, cells, spec, spaces,
                                     semiring, lineno)
        except MemoryError:
            raise _too_big(word, cells, lineno) from None
    # Every @random entry is realised in one pass over one buffer.
    try:
        arrays = _random_arrays(seeds, shapes, semiring)
    except (MemoryError, ValueError):
        # numpy refuses a buffer past its size limit with a ValueError.
        cells, (lineno, word, *_) = max(
            (math.prod(shape), r) for shape, r in zip(shapes, randoms))
        raise _too_big(word, cells, lineno) from None
    for (_, word, ptype, wires, spec), data in zip(randoms, arrays):
        entries[word] = LexiconEntry(word, ptype, Tensor(
            wires, data, semiring, copy=False), spec)
    return Lexicon(spaces, semiring, entries)


def load_lexicon(path) -> Lexicon:
    """Load a lexicon file; bytes that are not UTF-8 are a ParseError."""
    # Bare descriptor reads: a buffered file object makes more system calls.
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    data = b"".join(chunks)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The line of the bad byte, counted as parse_lexicon counts lines.
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError(f"invalid UTF-8: {exc.reason}", line) from None
    return parse_lexicon(text, name=str(path))


def _format_element(value, semiring: Semiring) -> str:
    if semiring is REAL:
        return format(float(value), ".17g")
    return "1" if value else "0"


def dumps_lexicon(lexicon: Lexicon) -> str:
    lines = [f"#semiring {lexicon.semiring.name}"]
    for base, dim in lexicon.spaces.as_dict().items():
        lines.append(f"#type {base} {dim}")
    for entry in lexicon:
        if entry.spec is not None:
            spec = entry.spec
        else:
            cells = ", ".join(_format_element(v, lexicon.semiring)
                              for v in entry.tensor.flat)
            spec = f"[{cells}]"
        lines.append(f"{entry.word} : {entry.type} = {spec}")
    return "\n".join(lines) + "\n"


def save_lexicon(lexicon: Lexicon, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_lexicon(lexicon))


def generate_random_lexicon(grammar, spaces, seed: int,
                            semiring: Semiring = REAL) -> Lexicon:
    """A lexicon with seeded-random tensors for each (word, type) pair.

    ``grammar`` maps words to type strings (a dict or pair iterable);
    entries are generated in iteration order from one splitmix64 stream,
    so equal seeds give bit-identical lexica on every platform.
    """
    if not isinstance(spaces, SpaceAssignment):
        spaces = SpaceAssignment(dict(spaces))
    pairs = grammar.items() if isinstance(grammar, dict) else list(grammar)
    typed, seeds, state = [], [], seed
    for word, type_text in pairs:
        ptype = parse_type(type_text, bases=spaces.bases())
        wires = spaces.wires(ptype)
        typed.append((word, ptype, wires))
        # The entry's stream is the lexicon's, advanced past earlier cells.
        seeds.append(state)
        state = (state + math.prod(w.dim for w in wires) * _GAMMA_INT) & _MASK
    arrays = _random_arrays(seeds, [[w.dim for w in wires]
                                    for _, _, wires in typed], semiring)
    return Lexicon(spaces, semiring, {
        word: LexiconEntry(word, ptype, Tensor(wires, data, semiring,
                                               copy=False), None)
        for (word, ptype, wires), data in zip(typed, arrays)})

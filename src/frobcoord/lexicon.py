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
product of the wire dimensions, finite numbers only, and only the
integers 0 or 1 for the boolean semiring; ``true`` and ``false`` are not
numbers), ``@conj`` (the coordinator for a type shaped
``x.r x x.l``; evaluation in either mode works from the copy spiders of
``x``'s factors, so no command reads its dense ``tensor``),
``@random(seed)`` (a splitmix64 stream with a seed below 2**64, mapped to
[0, 1) and thresholded at 0.5 for the boolean semiring, computed over
``np.uint64`` arrays bit for bit equal to :class:`SplitMix64`) or
``@identity`` (square order-2 types only).  Dimensions and seeds are
ASCII digits.  Parsing checks every spec against its entry's type and
allocates no tensor: each entry's tensor is built on first access to it
(see :class:`LexiconEntry`), so a tensor too large for memory, or with
more wires than numpy allows an array axes, is a :class:`ParseError` at
its first use.  Real entries are saved with 17 significant digits, so
save/load round-trips exactly.

:meth:`Lexicon.row` is the one word lookup from a sentence to its entries:
it raises :class:`UnknownWord` and realises no tensor.
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

from .coordination import coordinator_tensor
from .errors import (DimMismatch, ParseError, UndeclaredSymbol,
                     UnknownBaseSymbol, UnknownWord, WireTypeMismatch)
from .evaluator import SpaceAssignment
from .pregroup import PregroupType, conjunct_type, parse_type
from .semiring import BY_NAME, REAL, Semiring
from .tensor import MAX_AXES, Tensor

_MASK = (1 << 64) - 1
_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
# Shift counts are 0-d uint64 arrays: numpy takes longer to resolve a
# shift of a uint64 array by a Python int or a numpy scalar.
_MIX = ((np.array(30, np.uint64), np.uint64(0xBF58476D1CE4E5B9)),
        (np.array(27, np.uint64), np.uint64(0x94D049BB133111EB)))
_SHIFT_31, _SHIFT_11 = np.array(31, np.uint64), np.array(11, np.uint64)
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


def _random_array(seed: int, shape, semiring: Semiring):
    """Outputs 1 to ``prod(shape)`` of ``SplitMix64(seed)``, each mapped
    through ``next_unit`` and ``semiring.from_unit``: a read-only array in
    ``shape``.

    SplitMix64 is counter-based: its c-th state is ``seed + c * gamma``
    mod 2**64.  The states are mixed in place over ``np.uint64``, whose
    arithmetic wraps, one cache-sized block of counters at a time.
    """
    out = np.empty(math.prod(shape), dtype=semiring.dtype)
    base = np.uint64(seed)
    for lo in range(0, out.size, _BLOCK):
        part = out[lo:lo + _BLOCK]
        z = np.arange(lo + 1, lo + part.size + 1, dtype=np.uint64)
        z *= _GAMMA
        z += base
        tmp = np.empty_like(z)
        for shift, mult in _MIX:
            z ^= np.right_shift(z, shift, out=tmp)
            z *= mult
        z ^= np.right_shift(z, _SHIFT_31, out=tmp)
        units = np.multiply(np.right_shift(z, _SHIFT_11, out=z), 2.0 ** -53,
                            out=tmp.view(np.float64))
        part[...] = semiring.from_unit(units)
    out.setflags(write=False)
    return out.reshape(shape)


class LexiconEntry:
    """A word, its type, its tensor spec and its tensor.

    ``spec`` is ``@conj``, ``@random(n)`` or ``@identity``, and None for
    literal data.  Each entry is made from a spec checked against its type
    and a ``build`` function that ``tensor`` calls on first access, keeping
    the result and dropping the function.  An allocation failing there is
    a :class:`ParseError` naming the entry, its ``cells`` (or its wires,
    past numpy's axis limit) and ``line``.
    """

    __slots__ = ("word", "type", "spec", "line", "cells", "_tensor",
                 "_build")

    def __init__(self, word: str, type: PregroupType, spec: str | None,
                 line: int | None, cells: int, build):
        self.word, self.type, self.spec = word, type, spec
        self.line, self.cells = line, cells
        self._tensor, self._build = None, build

    @property
    def tensor(self) -> Tensor:
        if self._tensor is None:
            try:
                self._tensor = self._build()
            except (MemoryError, ValueError):
                # numpy refuses an array past its size or axis limit with a
                # ValueError.
                why = (f"its {len(self.type)} wires are past numpy's limit "
                       f"of {MAX_AXES} axes" if len(self.type) > MAX_AXES
                       else f"its {self.cells} cells do not fit in memory")
                raise ParseError(f"entry {self.word!r}: {why}",
                                 self.line) from None
            self._build = None
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

    def row(self, tokens) -> list[LexiconEntry]:
        """The entries of a sentence's tokens: words, or ``(word,
        type-string)`` pairs checked against the word's type."""
        row = []
        for token in tokens:
            word, declared = (token, None) if isinstance(token, str) \
                else token
            entry = self.entries.get(word)
            if entry is None:
                raise UnknownWord(f"{word!r} is not in the lexicon")
            if declared is not None and \
                    parse_type(declared, self.spaces.bases()) != entry.type:
                raise WireTypeMismatch(len(row), 0, entry.type, declared)
            row.append(entry)
        return row


# Matched against stripped lines.
_ENTRY = re.compile(r"(\S+)\s*:\s*(.*?)\s*=\s*(.*)")
_RANDOM = re.compile(r"^@random\(([0-9]+)\)$")


def _builder(word, ptype, wires, spec, spaces, semiring, line):
    """Check ``spec`` against its entry's type; return the tensor's maker."""
    m = _RANDOM.match(spec)
    if m:
        digits = m.group(1).lstrip("0") or "0"
        seed = int(digits) if len(digits) <= 20 else _MASK + 1
        if seed > _MASK:
            raise ParseError(f"entry {word!r}: @random seed is not below "
                             f"2**64", line)
        return lambda: Tensor(wires, _random_array(
            seed, [w.dim for w in wires], semiring), semiring, copy=False)
    if spec.startswith("["):
        try:
            data = json.loads(spec)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, or past Python's integer-digit or nesting limit
            msg = getattr(exc, "msg", "too many digits or too deeply nested")
            raise ParseError(f"bad literal for {word!r}: {msg}", line)
        size = math.prod(w.dim for w in wires)
        if not isinstance(data, list) or len(data) != size:
            raise DimMismatch(
                f"entry {word!r}: literal of length "
                f"{len(data) if isinstance(data, list) else '?'} "
                f"does not fill {size} cells")
        for value in data:
            if not semiring.literal_ok(value):
                raise ParseError(f"entry {word!r}: literal value {value!r} "
                                 f"is not {semiring.literal_rule}", line)
        return lambda: Tensor(wires, data, semiring)
    if spec == "@conj":
        x = conjunct_type(ptype)
        if isinstance(x, int):
            raise ParseError(
                f"entry {word!r}: @conj needs a type shaped x.r x x.l", line)
        return lambda: coordinator_tensor(x, spaces, semiring)
    if spec == "@identity":
        if len(ptype) != 2 or wires[0].dim != wires[1].dim:
            raise DimMismatch(
                f"entry {word!r}: @identity needs a square order-2 type")
        return lambda: Tensor(wires, np.eye(wires[0].dim,
                                            dtype=semiring.dtype),
                              semiring, copy=False)
    raise ParseError(f"entry {word!r}: unrecognised tensor spec {spec!r}",
                     line)


def parse_lexicon(text: str) -> Lexicon:
    """Parse lexicon text; see the module docstring for the format."""
    dims: dict[str, int] = {}
    semiring = None
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
                if semiring is not None:
                    raise ParseError("duplicate semiring directive", lineno)
                semiring = BY_NAME[parts[1]]
            elif parts[:1] == ["type"]:
                if (len(parts) != 3 or not parts[2].isascii()
                        or not parts[2].isdigit()):
                    raise ParseError(f"bad type directive {line!r}", lineno)
                if parts[1] in dims:
                    raise ParseError(f"duplicate type {parts[1]!r}", lineno)
                if not parts[2].strip("0"):
                    raise ParseError(f"type {parts[1]!r} has dimension 0",
                                     lineno)
                try:
                    dims[parts[1]] = int(parts[2])
                except ValueError:  # past the interpreter's digit limit
                    raise ParseError(
                        f"type {parts[1]!r} has a dimension of "
                        f"{len(parts[2])} digits", lineno) from None
            else:
                raise ParseError(f"unknown directive {line!r}", lineno)
            continue
        m = _ENTRY.match(line)
        if m is None:
            raise ParseError(f"expected 'word : type = spec', got {line!r}",
                             lineno)
        raw_entries.append((lineno, *m.groups()))

    spaces = SpaceAssignment(dims)
    semiring = semiring or REAL
    bases = set(dims)
    typed = {}  # type text -> (type, wires); each text parsed once
    entries = {}
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
            typed[type_text] = ptype, spaces.wires(ptype)
        ptype, wires = typed[type_text]
        build = _builder(word, ptype, wires, spec, spaces, semiring, lineno)
        entries[word] = LexiconEntry(
            word, ptype, None if spec.startswith("[") else spec, lineno,
            math.prod(w.dim for w in wires), build)
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
    return parse_lexicon(text)


def dumps_lexicon(lexicon: Lexicon) -> str:
    to_python = lexicon.semiring.to_python
    lines = [f"#semiring {lexicon.semiring.name}"]
    for base, dim in lexicon.spaces.as_dict().items():
        lines.append(f"#type {base} {dim}")
    for entry in lexicon:
        if entry.spec is not None:
            spec = entry.spec
        else:
            cells = ", ".join(format(to_python(v), ".17g")
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
    so equal seeds give bit-identical lexica on every platform.  ``seed``
    is any int, taken modulo 2**64 as :class:`SplitMix64` takes it.
    """
    if not isinstance(spaces, SpaceAssignment):
        spaces = SpaceAssignment(dict(spaces))
    pairs = grammar.items() if isinstance(grammar, dict) else list(grammar)
    entries, state = {}, seed & _MASK
    for word, type_text in pairs:
        ptype = parse_type(type_text, bases=spaces.bases())
        wires = spaces.wires(ptype)
        cells = math.prod(w.dim for w in wires)
        # The entry's stream is the lexicon's, advanced past earlier cells.
        entries[word] = LexiconEntry(word, ptype, None, None, cells, _builder(
            word, ptype, wires, f"@random({state})", spaces, semiring, None))
        state = (state + cells * _GAMMA_INT) & _MASK
    return Lexicon(spaces, semiring, entries)

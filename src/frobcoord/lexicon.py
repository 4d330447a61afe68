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
the boolean semiring), ``@conj`` (builds the coordinator tensor
for a type shaped ``x.r x x.l``), ``@random(seed)`` (deterministic
splitmix64 stream mapped to [0, 1), thresholded at 0.5 for the boolean
semiring) or ``@identity`` (square order-2 types only).  Real entries are
saved with 17 significant digits, so save/load round-trips exactly.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .coordination import coordinator_tensor
from .errors import (DimMismatch, ParseError, UndeclaredSymbol,
                     UnknownBaseSymbol)
from .evaluator import SpaceAssignment
from .pregroup import PregroupType, parse_type
from .semiring import BY_NAME, REAL, Semiring
from .tensor import Tensor

_MASK = (1 << 64) - 1


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


@dataclass(frozen=True)
class LexiconEntry:
    word: str
    type: PregroupType
    tensor: Tensor
    spec: str | None  # @conj / @random(n) / @identity; None for literal data

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


_ENTRY = re.compile(r"^\s*(\S+)\s*:\s*(.*?)\s*=\s*(.*?)\s*$")
_RANDOM = re.compile(r"^@random\((\d+)\)$")


def _random_data(seed: int, size: int, semiring: Semiring):
    stream = SplitMix64(seed)
    return [semiring.from_unit(stream.next_unit()) for _ in range(size)]


def _conj_shape(ptype: PregroupType) -> PregroupType | None:
    """The conjunct type when ``ptype`` has the shape ``x.r x x.l``."""
    if len(ptype) % 3:
        return None
    k = len(ptype) // 3
    x = ptype[k:2 * k]
    if ptype[:k] == x.adjoint_right() and ptype[2 * k:] == x.adjoint_left():
        return x
    return None


def _literal_value_ok(value, semiring: Semiring) -> bool:
    """Real literals take finite numbers; boolean literals take 0 and 1."""
    if semiring is REAL:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return value in (0, 1)


def _realize(word, ptype, spec, spaces, semiring, line):
    wires = spaces.wires(ptype)
    size = math.prod(w.dim for w in wires)
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
        return Tensor(wires, data, semiring), None
    if spec == "@conj":
        x = _conj_shape(ptype)
        if x is None:
            raise ParseError(
                f"entry {word!r}: @conj needs a type shaped x.r x x.l", line)
        return coordinator_tensor(x, spaces, semiring), "@conj"
    if spec == "@identity":
        if len(ptype) != 2 or wires[0].dim != wires[1].dim:
            raise DimMismatch(
                f"entry {word!r}: @identity needs a square order-2 type")
        return Tensor(wires, np.eye(wires[0].dim, dtype=semiring.dtype),
                      semiring), "@identity"
    m = _RANDOM.match(spec)
    if m:
        data = _random_data(int(m.group(1)), size, semiring)
        return Tensor(wires, data, semiring), spec
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
                if len(parts) != 3 or not parts[2].isdigit():
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
        raw_entries.append((lineno, m.group(1), m.group(2), m.group(3)))

    spaces = SpaceAssignment(dims)
    entries = {}
    for lineno, word, type_text, spec in raw_entries:
        if word in entries:
            raise ParseError(f"duplicate entry for {word!r}", lineno)
        try:
            ptype = parse_type(type_text, bases=set(dims))
        except UnknownBaseSymbol as exc:
            raise UndeclaredSymbol(word, exc.base, lineno) from None
        if not ptype:
            raise ParseError(f"entry {word!r} has the empty type", lineno)
        try:
            tensor, spec_kind = _realize(word, ptype, spec, spaces, semiring,
                                         lineno)
        except MemoryError:
            cells = math.prod(w.dim for w in spaces.wires(ptype))
            raise ParseError(f"entry {word!r}: its {cells} cells do not fit "
                             f"in memory", lineno) from None
        entries[word] = LexiconEntry(word, ptype, tensor, spec_kind)
    return Lexicon(spaces, semiring, entries)


def load_lexicon(path) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return parse_lexicon(fh.read(), name=str(path))


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
    stream = SplitMix64(seed)
    entries = {}
    for word, type_text in pairs:
        ptype = parse_type(type_text, bases=spaces.bases())
        wires = spaces.wires(ptype)
        size = math.prod(w.dim for w in wires)
        data = [semiring.from_unit(stream.next_unit()) for _ in range(size)]
        entries[word] = LexiconEntry(word, ptype, Tensor(wires, data,
                                                         semiring), None)
    return Lexicon(spaces, semiring, entries)

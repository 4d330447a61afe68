"""Exception hierarchy shared by all modules.

Every value the package refuses raises a :class:`FrobcoordError`.  Where
Python's own exception class fits as well, the error derives from it too
(:class:`BadArgument` is a ``ValueError``, :class:`BadIndex` an
``IndexError``), so a caller that catches the builtin keeps working.  An
argument of the wrong Python type is not checked and fails as Python or
numpy fails on it, with a ``TypeError``, ``AttributeError`` or
``ValueError`` that is no :class:`FrobcoordError`: a type string, target
or lexicon text that is not a ``str`` (``bytes`` included), a space
mapping that is not a ``dict``, a token row of strings rather than types,
or tensor data that numpy cannot convert.  The exceptions are the integers
that Python would otherwise coerce: a dimension, a coordinator position or
a ``cap`` that is not a Python ``int`` (a ``bool`` or a float, say) raises
:class:`DimMismatch` or :class:`BadArgument`.
"""


class FrobcoordError(Exception):
    """Base class for every error the package raises on a refused value."""


class BadArgument(FrobcoordError, ValueError):
    """An argument has the right type but a value the function refuses."""


class BadIndex(FrobcoordError, IndexError):
    """An index lies outside the sequence it indexes."""


class DimMismatch(FrobcoordError):
    """Two wires (or a tensor and its data) disagree on dimension."""


class TypeMismatch(FrobcoordError):
    """Wires paired in type-checked mode are not adjoint-compatible."""


class ArityError(FrobcoordError):
    """A tensor has the wrong number of wires for the operation."""


class ShapeMismatch(FrobcoordError):
    """Wire lists or data shapes do not line up."""


class SemiringMismatch(FrobcoordError):
    """Operands carry elements of different semirings."""


class OutOfMemory(FrobcoordError):
    """A tensor the computation needs does not fit in memory, or numpy
    cannot make it: past its axis limit, its size limit or memory."""


class Overflow(FrobcoordError):
    """A real-carrier result is not finite: float64 arithmetic overflowed."""


class BadPermutation(FrobcoordError):
    """The argument is not a permutation of the wire indices."""


class TypeSyntaxError(FrobcoordError):
    """A type string failed to parse.

    ``position`` is the character offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownBaseSymbol(FrobcoordError):
    """A base symbol is not declared in the grammar."""

    def __init__(self, base, position=None):
        at = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown base symbol {base!r}{at}")
        self.base = base
        self.position = position


class EmptyType(FrobcoordError):
    """The empty (unit) type is not allowed here."""


class InvalidDerivation(FrobcoordError):
    """A derivation violates one of its structural invariants."""


class MissingSpace(FrobcoordError):
    """A base symbol has no dimension assigned."""


class WireTypeMismatch(FrobcoordError):
    """A word tensor does not match its declared pregroup type."""

    def __init__(self, token, wire, expected, actual):
        super().__init__(
            f"token {token}, wire {wire}: expected {expected}, got {actual}")
        self.token = token
        self.wire = wire
        self.expected = expected
        self.actual = actual


class UngrammaticalSentence(FrobcoordError):
    """The token sequence does not reduce to the target type."""


class UnknownWord(FrobcoordError):
    """A word is missing from the lexicon."""


class ParseError(FrobcoordError):
    """A lexicon failed to parse.  ``line`` is 1-based, or None."""

    def __init__(self, message, line):
        super().__init__(message if line is None else f"line {line}: "
                         f"{message}")
        self.line = line


class UndeclaredSymbol(FrobcoordError):
    """A lexicon entry uses a base symbol with no ``#type`` directive."""

    def __init__(self, word, base, line=None):
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"entry {word!r} uses undeclared symbol {base!r}{at}")
        self.word = word
        self.base = base
        self.line = line

"""The vector spaces of a grammar's types: dimensions, wires and modes.

A :class:`SpaceAssignment` gives each base symbol the dimension of its
space, and with it each pregroup type its wire signature: one
:class:`Wire` per simple type.  This module and the ones it imports
(``pregroup`` and ``errors``) import no numpy, so grammar checks and
lexicon parsing run without the array layer; ``tensor`` and ``evaluator``
re-export these names.

>>> SpaceAssignment({"n": 2, "s": 3}).wires((SimpleType("n", 1),
...                                          SimpleType("s")))
(Wire(base='n', z=1, dim=2), Wire(base='s', z=0, dim=3))
"""

from collections import namedtuple

from .errors import DimMismatch, MissingSpace
from .pregroup import PregroupType, SimpleType

MODES = ("explicit", "closed-form")
"""The evaluation modes: each coordinator's copy spiders as nodes, or its
legs' wires identified."""


def _checked_dim(dim, what: str = "wire dimension") -> int:
    """``dim`` if it is a dimension: a Python ``int`` of at least 1, not a
    ``bool`` or a numpy integer.  Anything else raises :class:`DimMismatch`
    naming ``what``, the rule and the value."""
    if type(dim) is not int or dim < 1:
        raise DimMismatch(f"{what} must be a Python int >= 1, got {dim!r}")
    return dim


class Wire(namedtuple("Wire", "base z dim")):
    """One tensor factor: an atomic symbol, adjoint order and dimension."""

    __slots__ = ()

    def __new__(cls, base: str, z: int = 0, dim: int = 1):
        return super().__new__(cls, base, z, _checked_dim(dim))

    def __str__(self):
        return str(SimpleType(self.base, self.z))


class SpaceAssignment:
    """Maps each base symbol to the dimension of its vector space, a
    Python ``int`` of at least 1 (not a ``bool``, not a numpy integer).

    An assignment is a value: equal dimensions make equal assignments with
    one hash, so the networks compiled under one serve every equal one.
    """

    def __init__(self, dims: dict):
        for base, d in dims.items():
            _checked_dim(d, f"space for {base!r}")
        self._dims = dict(dims)
        self._hash = hash(frozenset(self._dims.items()))
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

    def __hash__(self):
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"{b}={d}" for b, d in self._dims.items())
        return f"SpaceAssignment({inner})"

"""Commutative semirings used as tensor carriers.

Two instances are provided:

* ``REAL`` — 64-bit floats with ordinary + and ×.  Equality is approximate:
  relative tolerance 1e-10 with an absolute floor of 1e-12, to absorb
  contraction-order effects.
* ``BOOLEAN`` — or/and over {0, 1} with exact equality.  Vectors over this
  instance are subset indicators and matrices are relations.

All methods act element-wise on numpy arrays (or scalars), so tensors can
stay dense ndarrays regardless of the carrier.  Each carrier also owns the
rules that differ between carriers: how an element prints
(:meth:`Semiring.to_python`), which lexicon literals it takes
(:meth:`Semiring.literal_ok`, named by ``literal_rule``), how far apart two
results are (:meth:`Semiring.distance`) and how a uniform draw becomes an
element (:meth:`Semiring.from_unit`), so the rest of the library need not
ask which carrier it holds.

A carrier's name, printing and literal rules need no numpy, and importing
this module imports none: ``np`` below stands in for numpy until an array
method first reads from it, and each carrier's ``dtype`` is looked up in
numpy by its ``dtype_name`` on its first read, so ``check`` and
``derive`` never load numpy.
"""

from __future__ import annotations

import sys


class _Numpy:
    """numpy, imported on the first attribute read, which also puts the
    module in this stand-in's place, so later reads cost nothing extra."""

    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _Numpy()


class Semiring:
    """A commutative semiring with an equality predicate and numpy hooks."""

    name: str
    dtype: type
    zero: object
    one: object
    literal_rule: str
    """What a lexicon literal must be, as an error message names it."""

    def add(self, x, y):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def sum(self, arr, axis=None):
        """Reduce with the additive monoid along ``axis``."""
        raise NotImplementedError

    def matmul(self, a, b):
        """Semiring matrix product of two 2-D arrays."""
        raise NotImplementedError

    def allclose(self, a, b) -> bool:
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        """Equality at this semiring's tolerance."""
        return self.allclose(a, b)

    def from_unit(self, u):
        """Map floats drawn from [0, 1), a scalar or an array, to
        elements."""
        raise NotImplementedError

    def to_python(self, value):
        """An element as the Python number that prints and serialises it."""
        raise NotImplementedError

    def literal_ok(self, value) -> bool:
        """Whether a parsed JSON value is a literal of this carrier."""
        raise NotImplementedError

    def distance(self, a, b):
        """How far apart two arrays of one shape are; 0 when equal."""
        raise NotImplementedError

    def __getattr__(self, name):
        # ``dtype``: numpy's scalar type named by the class attribute
        # ``dtype_name``, looked up on the first read and then kept as a
        # class attribute.
        if name != "dtype":
            raise AttributeError(f"{self!r} has no attribute {name!r}")
        type(self).dtype = getattr(np, self.dtype_name)
        return self.dtype

    def __repr__(self):
        return f"<semiring {self.name}>"


class _Real(Semiring):
    name = "real"
    dtype_name = "float64"
    zero = 0.0
    one = 1.0
    rtol = 1e-10
    atol = 1e-12
    literal_rule = "a finite number"

    def add(self, x, y):
        return np.add(x, y)

    def mul(self, x, y):
        return np.multiply(x, y)

    def sum(self, arr, axis=None):
        return np.sum(arr, axis=axis)

    def matmul(self, a, b):
        return a @ b

    def allclose(self, a, b) -> bool:
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if a.shape != b.shape:
            return False
        bound = self.atol + self.rtol * np.maximum(np.abs(a), np.abs(b))
        return bool(np.all(np.abs(a - b) <= bound))

    def from_unit(self, u):
        return u

    def to_python(self, value):
        return float(value)

    def literal_ok(self, value) -> bool:
        # False for NaN, the infinities, integers past the float range and
        # JSON's true and false.
        return type(value) in (int, float) and abs(value) <= sys.float_info.max

    def distance(self, a, b):
        """The largest absolute difference of two entries."""
        return float(np.max(np.abs(a - b))) if np.size(a) else 0.0


class _Boolean(Semiring):
    name = "bool"
    dtype_name = "bool_"
    zero = False
    one = True
    literal_rule = "0 or 1"

    def add(self, x, y):
        return np.logical_or(x, y)

    def mul(self, x, y):
        return np.logical_and(x, y)

    def sum(self, arr, axis=None):
        return np.any(arr, axis=axis)

    def matmul(self, a, b):
        """Or-of-ands of two boolean 2-D arrays, by one of two rules.

        A one-row ``a`` selects rows of ``b``, and the product is their
        or: the row-wise boolean product of Arlazarov et al. (1970).
        Entry ``j`` is the or over ``t`` of ``a[0, t] and b[t, j]``, which
        is the or of column ``j`` over the rows that ``a[0]`` selects; no
        selected row gives all false, as the empty or must.  The selected
        rows are the only temporary, at most the size of ``b``.

        Any other shape is a float32 BLAS product of 0/1 copies, then
        ``> 0``.  Exact under any rounding and any summation order: every
        term is 0 or 1, so an output entry is a sum of non-negative terms,
        which is above 0 exactly when some term is 1.  The count cannot
        overflow either: it is at most the shared dimension, an axis
        length of an array in memory, far below float32's largest value.
        A one-column ``b`` stays on this rule: selecting columns measured
        slower than BLAS at 64 x 64, and numpy's own boolean ``matmul`` is
        far slower on sparse operands.
        """
        if a.shape[0] == 1:
            return b[a[0]].any(axis=0, keepdims=True)
        return (a.astype(np.float32) @ b.astype(np.float32)) > 0

    def allclose(self, a, b) -> bool:
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        return a.shape == b.shape and bool(np.all(a == b))

    def from_unit(self, u):
        return u >= 0.5

    def to_python(self, value):
        return int(value)

    def literal_ok(self, value) -> bool:
        return type(value) is int and value in (0, 1)

    def distance(self, a, b):
        """The number of entries that differ."""
        return int(np.count_nonzero(a != b))


REAL = _Real()
BOOLEAN = _Boolean()

BY_NAME = {"real": REAL, "bool": BOOLEAN}

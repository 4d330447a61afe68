"""Commutative semirings used as tensor carriers.

Two instances are provided:

* ``REAL`` — 64-bit floats with ordinary + and ×.  Equality is approximate:
  relative tolerance 1e-10 with an absolute floor of 1e-12, to absorb
  contraction-order effects.
* ``BOOLEAN`` — or/and over {0, 1} with exact equality.  Vectors over this
  instance are subset indicators and matrices are relations.

All methods act element-wise on numpy arrays (or scalars), so tensors can
stay dense ndarrays regardless of the carrier.
"""

from __future__ import annotations

import numpy as np


class Semiring:
    """A commutative semiring with an equality predicate and numpy hooks."""

    name: str
    dtype: type
    zero: object
    one: object

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

    def from_unit(self, u: float):
        """Map a float drawn from [0, 1) to a semiring element."""
        raise NotImplementedError

    def __repr__(self):
        return f"<semiring {self.name}>"


class _Real(Semiring):
    name = "real"
    dtype = np.float64
    zero = 0.0
    one = 1.0
    rtol = 1e-10
    atol = 1e-12

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
        return float(u)


class _Boolean(Semiring):
    name = "bool"
    dtype = np.bool_
    zero = False
    one = True

    def add(self, x, y):
        return np.logical_or(x, y)

    def mul(self, x, y):
        return np.logical_and(x, y)

    def sum(self, arr, axis=None):
        return np.any(arr, axis=axis)

    def matmul(self, a, b):
        """Or-of-ands as a float32 BLAS product of 0/1 copies, then ``> 0``.

        Exact under any rounding and any summation order: every term is 0
        or 1, so an output entry is a sum of non-negative terms, which is
        above 0 exactly when some term is 1.  The count cannot overflow
        either: it is at most the shared dimension, an axis length of an
        array in memory, far below float32's largest value.
        """
        return (a.astype(np.float32) @ b.astype(np.float32)) > 0

    def allclose(self, a, b) -> bool:
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        return a.shape == b.shape and bool(np.all(a == b))

    def from_unit(self, u):
        return bool(u >= 0.5)


REAL = _Real()
BOOLEAN = _Boolean()

BY_NAME = {"real": REAL, "bool": BOOLEAN}

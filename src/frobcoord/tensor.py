"""Dense tensors over a semiring, with typed wires.

A :class:`Tensor` is an ordered list of :class:`Wire` objects plus a dense
row-major array of semiring elements, one axis per wire.  Wires carry the
atomic symbol of the grammar, an integer adjoint order ``z`` (0 = plain,
+k = k right adjoints, -k = k left adjoints) and a dimension.  Numeric
operations only ever need the dimensions; the symbol and adjoint order are
bookkeeping for the grammar-aware layers, which alone enforce them.

Tensors are immutable values: every operation returns a fresh tensor and
the underlying arrays are marked read-only, so sharing across threads is
safe.

>>> import numpy as np
>>> v = Tensor([Wire("n", 0, 2)], [1.0, 2.0])
>>> w = Tensor([Wire("n", 0, 2)], [3.0, 4.0])
>>> frobenius_mu(v, w).array.tolist()
[3.0, 8.0]
>>> contract(tensor_product(v, w), 0, 1).item()
11.0
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import (ArityError, BadPermutation, DimMismatch, ShapeMismatch,
                     SemiringMismatch, TypeMismatch)
from .pregroup import SimpleType
from .semiring import REAL, Semiring

# numpy's limit on the axes of one array: 32 before numpy 2.0, 64 since.
MAX_AXES = 64 if int(np.__version__.split(".")[0]) >= 2 else 32


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


class Tensor:
    """A dense multi-dimensional array with one typed wire per axis."""

    __slots__ = ("wires", "array", "semiring")

    def __init__(self, wires, data, semiring: Semiring = REAL, copy=True):
        wires = tuple(wires)
        shape = tuple([w.dim for w in wires])
        if copy:
            arr = np.array(data, dtype=semiring.dtype)
        else:
            arr = np.asarray(data, dtype=semiring.dtype)
        if arr.shape != shape:
            # Only flat row-major data is reshaped: data of another shape
            # would be read as a different tensor.
            if arr.ndim != 1 or arr.size != math.prod(shape):
                raise ShapeMismatch(
                    f"data of shape {arr.shape} fits neither wires {shape} "
                    f"nor their {math.prod(shape)} cells flat")
            arr = arr.reshape(shape)
        arr.setflags(write=False)
        self.wires = wires
        self.array = arr
        self.semiring = semiring

    @property
    def order(self) -> int:
        return len(self.wires)

    @property
    def dims(self):
        return tuple(w.dim for w in self.wires)

    @property
    def flat(self):
        """Entries as a flat row-major array (a read-only view)."""
        return self.array.reshape(-1)

    def item(self):
        """The single entry of a scalar (0-wire) tensor."""
        if self.order != 0:
            raise ArityError(f"item() on a tensor of order {self.order}")
        return self.array.item()

    def isclose(self, other: "Tensor") -> bool:
        """Same wires and entry-wise equal at the semiring's tolerance."""
        return (self.semiring is other.semiring
                and self.wires == other.wires
                and self.semiring.allclose(self.array, other.array))

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return tensor_product(self, other)

    def __repr__(self):
        sig = " ".join(f"{w}:{w.dim}" for w in self.wires) or "scalar"
        return f"Tensor({sig}, {self.semiring.name})"


def scalar(value, semiring: Semiring = REAL) -> Tensor:
    """A 0-wire tensor holding one semiring element."""
    return Tensor((), np.array(value, dtype=semiring.dtype), semiring)


def _same_semiring(a: Tensor, b: Tensor) -> Semiring:
    if a.semiring is not b.semiring:
        raise SemiringMismatch(
            f"{a.semiring.name} vs {b.semiring.name}")
    return a.semiring


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    """Outer product; output wires are ``a.wires ++ b.wires``."""
    sr = _same_semiring(a, b)
    left = a.array.reshape(a.array.shape + (1,) * b.order)
    return Tensor(a.wires + b.wires, sr.mul(left, b.array), sr, copy=False)


def contract(t: Tensor, i: int, j: int, typed: bool = False) -> Tensor:
    """Sum the shared index of wires ``i`` and ``j`` (cup pairing).

    Raw mode checks dimensions only.  With ``typed=True`` the wires must
    carry the same base symbol and adjoint orders exactly one apart.
    Output wires are ``t.wires`` with positions ``i`` and ``j`` removed,
    order otherwise preserved.
    """
    n = t.order
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ArityError(f"cannot contract wires {i}, {j} of order-{n} tensor")
    wi, wj = t.wires[i], t.wires[j]
    if wi.dim != wj.dim:
        raise DimMismatch(f"contract {wi}:{wi.dim} with {wj}:{wj.dim}")
    if typed and (wi.base != wj.base or abs(wi.z - wj.z) != 1):
        raise TypeMismatch(f"wires {wi} and {wj} are not adjoint-paired")
    diag = np.diagonal(t.array, axis1=i, axis2=j)
    data = t.semiring.sum(diag, axis=-1)
    wires = tuple(w for k, w in enumerate(t.wires) if k not in (i, j))
    return Tensor(wires, data, t.semiring, copy=False)


def eta_cap(base: str, side: str, dim: int, z: int = 0,
            semiring: Semiring = REAL) -> Tensor:
    """The identity-matrix cap for one atomic symbol.

    ``side="right"`` types the wires ``(base^{z+1}, base^{z})``;
    ``side="left"`` types them ``(base^{z}, base^{z-1})``.  The data is
    the same either way.
    """
    if side == "right":
        wires = (Wire(base, z + 1, dim), Wire(base, z, dim))
    elif side == "left":
        wires = (Wire(base, z, dim), Wire(base, z - 1, dim))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return Tensor(wires, np.eye(dim, dtype=semiring.dtype), semiring,
                  copy=False)


def frobenius_delta(v: Tensor) -> Tensor:
    """Copy a vector onto the diagonal of a matrix.

    >>> frobenius_delta(Tensor([Wire("n", 0, 2)], [1.0, 2.0])).array.tolist()
    [[1.0, 0.0], [0.0, 2.0]]
    """
    if v.order != 1:
        raise ArityError(f"delta takes an order-1 tensor, got order {v.order}")
    w = v.wires[0]
    out = np.zeros((w.dim, w.dim), dtype=v.semiring.dtype)
    np.fill_diagonal(out, v.array)
    return Tensor((w, w), out, v.semiring, copy=False)


def frobenius_mu(a: Tensor, b: Tensor) -> Tensor:
    """Merge two same-shaped tensors entry-wise (Hadamard product)."""
    sr = _same_semiring(a, b)
    if a.wires != b.wires:
        raise ShapeMismatch(f"mu on {a!r} vs {b!r}")
    return Tensor(a.wires, sr.mul(a.array, b.array), sr, copy=False)


def frobenius_mu_matrix(m: Tensor) -> Tensor:
    """Merge the two wires of an order-2 tensor: its diagonal as a vector.

    Agrees with :func:`frobenius_mu` when the matrix is an outer product.
    """
    if m.order != 2:
        raise ShapeMismatch(f"expected an order-2 tensor, got {m.order}")
    if m.wires[0].dim != m.wires[1].dim:
        raise ShapeMismatch(f"expected a square matrix, got {m.dims}")
    return Tensor((m.wires[0],), np.diagonal(m.array).copy(), m.semiring,
                  copy=False)


def frobenius_iota(v: Tensor):
    """Delete a vector: the sum of its entries, as a semiring element."""
    if v.order != 1:
        raise ArityError(f"iota takes an order-1 tensor, got order {v.order}")
    return v.semiring.sum(v.array).item()


def frobenius_zeta(base: str, dim: int, z: int = 0,
                   semiring: Semiring = REAL) -> Tensor:
    """The all-ones vector, the unit of the merge operation."""
    wire = Wire(base, z, dim)
    ones = np.full(dim, semiring.one, dtype=semiring.dtype)
    return Tensor((wire,), ones, semiring, copy=False)


def permute_wires(t: Tensor, perm) -> Tensor:
    """Reorder wires so that output wire ``k`` is input wire ``perm[k]``."""
    perm = tuple(perm)
    if sorted(perm) != list(range(t.order)):
        raise BadPermutation(f"{perm} is not a permutation of 0..{t.order - 1}")
    wires = tuple(t.wires[p] for p in perm)
    return Tensor(wires, np.transpose(t.array, perm), t.semiring, copy=False)


def random_tensor(wires, rng: np.random.Generator,
                  semiring: Semiring = REAL) -> Tensor:
    """Uniform draws from [0, 1), mapped by ``semiring.from_unit``."""
    wires = tuple(wires)
    data = semiring.from_unit(rng.random(tuple(w.dim for w in wires)))
    return Tensor(wires, data, semiring)
